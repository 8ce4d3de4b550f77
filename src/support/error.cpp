#include "support/error.hpp"

namespace psnap {

ErrorClass classifyError(const std::exception_ptr& error) {
  if (!error) return ErrorClass::None;
  try {
    std::rethrow_exception(error);
  } catch (const TimeoutError&) {
    return ErrorClass::Timeout;
  } catch (const CancelledError&) {
    return ErrorClass::Cancelled;
  } catch (const RestartsExhaustedError&) {
    return ErrorClass::RestartsExhausted;
  } catch (const SubstrateError&) {
    return ErrorClass::Substrate;
  } catch (const TypeError&) {
    return ErrorClass::Type;
  } catch (const IndexError&) {
    return ErrorClass::Index;
  } catch (const BlockError&) {
    return ErrorClass::Block;
  } catch (const PurityError&) {
    return ErrorClass::Purity;
  } catch (const CodegenError&) {
    return ErrorClass::Codegen;
  } catch (const ParseError&) {
    return ErrorClass::Parse;
  } catch (const Error&) {
    return ErrorClass::Generic;
  } catch (...) {
    return ErrorClass::Foreign;
  }
}

std::string exceptionMessage(const std::exception_ptr& error,
                             const char* fallback) {
  if (!error) return {};
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return fallback;
  }
}

const char* errorClassName(ErrorClass errorClass) {
  switch (errorClass) {
    case ErrorClass::None:      return "None";
    case ErrorClass::Generic:   return "Error";
    case ErrorClass::Type:      return "TypeError";
    case ErrorClass::Index:     return "IndexError";
    case ErrorClass::Block:     return "BlockError";
    case ErrorClass::Purity:    return "PurityError";
    case ErrorClass::Codegen:   return "CodegenError";
    case ErrorClass::Parse:     return "ParseError";
    case ErrorClass::Substrate: return "SubstrateError";
    case ErrorClass::Timeout:   return "TimeoutError";
    case ErrorClass::Cancelled: return "CancelledError";
    case ErrorClass::RestartsExhausted: return "RestartsExhaustedError";
    case ErrorClass::Foreign:   return "ForeignError";
  }
  return "Error";
}

bool isSubstrateClass(ErrorClass errorClass) {
  return errorClass == ErrorClass::Substrate ||
         errorClass == ErrorClass::Timeout ||
         errorClass == ErrorClass::Cancelled ||
         errorClass == ErrorClass::RestartsExhausted;
}

bool isRetryableClass(ErrorClass errorClass) {
  return errorClass == ErrorClass::Substrate;
}

namespace {
/// Strip the "<prefix>: " a constructor would re-add, so a message that
/// round-trips through (class, string) form is not double-prefixed.
std::string stripPrefix(const std::string& message, const char* prefix) {
  const size_t n = std::char_traits<char>::length(prefix);
  if (message.compare(0, n, prefix) == 0) return message.substr(n);
  return message;
}

const char* classPrefix(ErrorClass errorClass) {
  switch (errorClass) {
    case ErrorClass::Type:      return "type error: ";
    case ErrorClass::Index:     return "index error: ";
    case ErrorClass::Block:     return "block error: ";
    case ErrorClass::Purity:    return "purity error: ";
    case ErrorClass::Codegen:   return "codegen error: ";
    case ErrorClass::Parse:     return "parse error: ";
    case ErrorClass::Substrate: return "substrate error: ";
    case ErrorClass::Timeout:   return "timeout: ";
    case ErrorClass::Cancelled: return "cancelled: ";
    case ErrorClass::RestartsExhausted: return "restarts exhausted: ";
    case ErrorClass::None:
    case ErrorClass::Generic:
    case ErrorClass::Foreign:
      break;
  }
  return "";
}
}  // namespace

std::string stripClassPrefix(ErrorClass errorClass,
                             const std::string& message) {
  return stripPrefix(message, classPrefix(errorClass));
}

void throwAsClass(ErrorClass errorClass, const std::string& message) {
  const std::string body = stripClassPrefix(errorClass, message);
  switch (errorClass) {
    case ErrorClass::Type:      throw TypeError(body);
    case ErrorClass::Index:     throw IndexError(body);
    case ErrorClass::Block:     throw BlockError(body);
    case ErrorClass::Purity:    throw PurityError(body);
    case ErrorClass::Codegen:   throw CodegenError(body);
    case ErrorClass::Parse:     throw ParseError(body);
    case ErrorClass::Substrate: throw SubstrateError(body);
    case ErrorClass::Timeout:   throw TimeoutError(body);
    case ErrorClass::Cancelled: throw CancelledError(body);
    case ErrorClass::RestartsExhausted: throw RestartsExhaustedError(body);
    case ErrorClass::None:
    case ErrorClass::Generic:
    case ErrorClass::Foreign:
      break;
  }
  throw Error(message);
}

}  // namespace psnap
