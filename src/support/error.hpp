// Error types shared across the psnap libraries.
//
// The interpreter follows Snap!'s convention that user-visible failures
// (wrong input type, index out of range, unknown block) surface as catchable
// errors rather than crashing the environment, so every library throws a
// subclass of psnap::Error and the schedulers catch them per process.
//
// Two families matter to the parallel substrate's fault model:
//
//   * user-script errors (TypeError, IndexError, …) describe a bug in the
//     script being run — deterministic, so never retried;
//   * substrate errors (SubstrateError and its TimeoutError / CancelledError
//     descendants) describe the execution machinery failing underneath a
//     correct script — a stalled worker, a failed transfer, a saturated
//     pool. Pure tasks may be retried on these, and parallel operations may
//     degrade to their sequential path (the paper's collapsible "in
//     parallel" slot) when they persist.
//
// ErrorClass is the tagged-code form of this hierarchy for carrying an
// error's *class* (not just its message) across a worker boundary or into
// a log record where an std::exception_ptr is impractical.
#pragma once

#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>

namespace psnap {

/// Base class for all errors raised by the psnap libraries.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A block was applied to a value of the wrong type (e.g. `item 1 of 7`).
class TypeError : public Error {
 public:
  explicit TypeError(const std::string& what) : Error("type error: " + what) {}
};

/// A list index was outside [1, length] (Snap! lists are 1-indexed).
class IndexError : public Error {
 public:
  explicit IndexError(const std::string& what)
      : Error("index error: " + what) {}
};

/// An opcode was not found in the block registry, or a block was built with
/// the wrong number of inputs for its spec.
class BlockError : public Error {
 public:
  explicit BlockError(const std::string& what)
      : Error("block error: " + what) {}
};

/// A ring that must be pure (worker-transportable) contained an impure or
/// unsupported block. Mirrors the paper's restriction that Web Worker code
/// cannot touch the stage.
class PurityError : public Error {
 public:
  explicit PurityError(const std::string& what)
      : Error("purity error: " + what) {}
};

/// Code generation could not translate a block to the target language
/// (no mapping registered, or a dynamic type could not be made static).
class CodegenError : public Error {
 public:
  explicit CodegenError(const std::string& what)
      : Error("codegen error: " + what) {}
};

/// Raised for malformed project XML.
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& what)
      : Error("parse error: " + what) {}
};

/// The execution substrate (worker pool, task transfer, shuffle machinery)
/// failed underneath a correct script. Pure tasks may be retried on this
/// class, and parallel operations may degrade to their sequential path.
class SubstrateError : public Error {
 public:
  explicit SubstrateError(const std::string& what)
      : Error("substrate error: " + what) {}

 protected:
  /// For descendants that want their own prefix instead of "substrate
  /// error:".
  struct Raw {};
  SubstrateError(Raw, const std::string& what) : Error(what) {}
};

/// A deadline or frame budget elapsed before the operation finished.
class TimeoutError : public SubstrateError {
 public:
  explicit TimeoutError(const std::string& what)
      : SubstrateError(Raw{}, "timeout: " + what) {}
};

/// The operation was cancelled — by a sibling task's failure (fail-fast
/// groups), an explicit stop, or a parent token.
class CancelledError : public SubstrateError {
 public:
  explicit CancelledError(const std::string& what)
      : SubstrateError(Raw{}, "cancelled: " + what) {}
};

/// A supervised session spent its restart budget: every re-admission from
/// its newest checkpoint failed again within the policy's window. Substrate
/// family (the failures were machinery failures), but terminal — the
/// supervisor will not retry past this point.
class RestartsExhaustedError : public SubstrateError {
 public:
  explicit RestartsExhaustedError(const std::string& what)
      : SubstrateError(Raw{}, "restarts exhausted: " + what) {}
};

/// The tagged-code form of the error hierarchy, for boundaries where an
/// exception object cannot travel (log records, polling APIs).
enum class ErrorClass : uint8_t {
  None = 0,   ///< no error
  Generic,    ///< psnap::Error with no more specific class
  Type,
  Index,
  Block,
  Purity,
  Codegen,
  Parse,
  Substrate,  ///< SubstrateError proper — the only retryable class
  Timeout,
  Cancelled,
  RestartsExhausted,  ///< a supervised session spent its restart budget
  Foreign,    ///< not a psnap::Error (std::exception or unknown)
};

/// Classify a captured exception. Null maps to ErrorClass::None.
ErrorClass classifyError(const std::exception_ptr& error);

/// The message of a captured exception: its what(), `fallback` when it is
/// not a std::exception, or empty when `error` is null.
std::string exceptionMessage(const std::exception_ptr& error,
                             const char* fallback);

/// Human-readable class name ("TypeError", "SubstrateError", …).
const char* errorClassName(ErrorClass errorClass);

/// True for the substrate family (Substrate, Timeout, Cancelled): the
/// failure came from the machinery, not the user's script.
bool isSubstrateClass(ErrorClass errorClass);

/// True only for SubstrateError proper. Timeouts are not retried (the
/// deadline has already passed) and cancellations are deliberate.
bool isRetryableClass(ErrorClass errorClass);

/// `message` with the prefix the class's constructor would re-add ("type
/// error: ", "timeout: ", …) removed, for call sites that rebuild a typed
/// error with extra context spliced in front.
std::string stripClassPrefix(ErrorClass errorClass,
                             const std::string& message);

/// Reconstruct a typed error from its tagged form and throw it. The
/// message is used verbatim (it already carries the class prefix from the
/// original throw site).
[[noreturn]] void throwAsClass(ErrorClass errorClass,
                               const std::string& message);

}  // namespace psnap
