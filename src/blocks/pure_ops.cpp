#include "blocks/pure_ops.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace psnap::blocks {

namespace {

constexpr double kPi = 3.14159265358979323846;

Value monadic(const std::string& fn, double x) {
  if (fn == "sqrt") {
    if (x < 0) throw Error("sqrt of a negative number");
    return Value(std::sqrt(x));
  }
  if (fn == "abs") return Value(std::fabs(x));
  if (fn == "floor") return Value(std::floor(x));
  if (fn == "ceiling") return Value(std::ceil(x));
  if (fn == "sin") return Value(std::sin(x * kPi / 180.0));
  if (fn == "cos") return Value(std::cos(x * kPi / 180.0));
  if (fn == "tan") return Value(std::tan(x * kPi / 180.0));
  if (fn == "asin") return Value(std::asin(x) * 180.0 / kPi);
  if (fn == "acos") return Value(std::acos(x) * 180.0 / kPi);
  if (fn == "atan") return Value(std::atan(x) * 180.0 / kPi);
  if (fn == "ln") {
    if (x <= 0) throw Error("ln of a non-positive number");
    return Value(std::log(x));
  }
  if (fn == "log") {
    if (x <= 0) throw Error("log of a non-positive number");
    return Value(std::log10(x));
  }
  if (fn == "e^") return Value(std::exp(x));
  if (fn == "10^") return Value(std::pow(10.0, x));
  throw Error("unknown monadic function \"" + fn + "\"");
}

std::vector<std::string> splitText(const std::string& text,
                                   const std::string& sep) {
  if (sep == "whitespace" || sep == "word" || sep.empty()) {
    return strings::splitWhitespace(text);
  }
  if (sep == "letter") {
    std::vector<std::string> parts;
    for (char ch : text) parts.emplace_back(1, ch);
    return parts;
  }
  if (sep == "line") return strings::split(text, '\n');
  if (sep.size() == 1) return strings::split(text, sep[0]);
  // Multi-character delimiter.
  std::vector<std::string> parts;
  size_t start = 0, pos;
  while ((pos = text.find(sep, start)) != std::string::npos) {
    parts.push_back(text.substr(start, pos - start));
    start = pos + sep.size();
  }
  parts.push_back(text.substr(start));
  return parts;
}

}  // namespace

bool lessThanValues(const Value& a, const Value& b) {
  double an, bn;
  if (a.numericValue(an) && b.numericValue(bn)) return an < bn;
  std::string leftOwned, rightOwned;
  const std::string_view left =
      a.isText() ? a.textView() : std::string_view(leftOwned = a.display());
  const std::string_view right =
      b.isText() ? b.textView() : std::string_view(rightOwned = b.display());
  return strings::compareIgnoreCase(left, right) < 0;
}

Value applyPure(Op op, const Value* in, size_t n) {
  switch (op) {
    // --- arithmetic ---------------------------------------------------------
    case Op::reportSum:
      return Value(in[0].asNumber() + in[1].asNumber());
    case Op::reportDifference:
      return Value(in[0].asNumber() - in[1].asNumber());
    case Op::reportProduct:
      return Value(in[0].asNumber() * in[1].asNumber());
    case Op::reportQuotient: {
      const double d = in[1].asNumber();
      if (d == 0) throw Error("division by zero");
      return Value(in[0].asNumber() / d);
    }
    case Op::reportModulus: {
      const double d = in[1].asNumber();
      if (d == 0) throw Error("modulus by zero");
      double r = std::fmod(in[0].asNumber(), d);
      // Snap! mod result has the sign of the divisor.
      if (r != 0 && ((r < 0) != (d < 0))) r += d;
      return Value(r);
    }
    case Op::reportPower:
      return Value(std::pow(in[0].asNumber(), in[1].asNumber()));
    case Op::reportRound:
      return Value(std::round(in[0].asNumber()));
    case Op::reportMonadic: {
      const std::string fn = strings::toLower(in[0].asText());
      return monadic(fn, in[1].asNumber());
    }

    // --- comparison / logic -------------------------------------------------
    case Op::reportEquals:
      return Value(in[0].equals(in[1]));
    case Op::reportLessThan:
      return Value(lessThanValues(in[0], in[1]));
    case Op::reportGreaterThan:
      return Value(lessThanValues(in[1], in[0]));
    case Op::reportAnd:
      return Value(in[0].asBoolean() && in[1].asBoolean());
    case Op::reportOr:
      return Value(in[0].asBoolean() || in[1].asBoolean());
    case Op::reportNot:
      return Value(!in[0].asBoolean());
    case Op::reportIfElse:
      return in[0].asBoolean() ? in[1] : in[2];
    case Op::reportIsA:
      return Value(strings::toLower(in[1].asText()) ==
                   valueKindName(in[0].kind()));
    case Op::reportIdentity:
      return in[0];

    // --- text ---------------------------------------------------------------
    case Op::reportJoinWords: {
      std::string out;
      for (size_t i = 0; i < n; ++i) out += in[i].asText();
      return Value(out);
    }
    case Op::reportLetter: {
      const std::string text = in[1].asText();
      const long long index = in[0].asInteger();
      if (index < 1 || static_cast<size_t>(index) > text.size()) {
        return Value(std::string());
      }
      return Value(std::string(1, text[static_cast<size_t>(index - 1)]));
    }
    case Op::reportStringSize:
      return Value(in[0].asText().size());
    case Op::reportUnicode: {
      const std::string text = in[0].asText();
      if (text.empty()) throw Error("unicode of empty text");
      return Value(static_cast<double>(static_cast<unsigned char>(text[0])));
    }
    case Op::reportUnicodeAsLetter:
      return Value(
          std::string(1, static_cast<char>(in[0].asInteger() & 0xff)));
    case Op::reportSplit: {
      const std::string text = in[0].asText();
      auto out = List::make();
      for (std::string& part : splitText(text, in[1].asText())) {
        out->add(Value(std::move(part)));
      }
      return Value(out);
    }

    // --- lists --------------------------------------------------------------
    case Op::reportNewList: {
      auto list = List::make();
      for (size_t i = 0; i < n; ++i) list->add(in[i]);
      return Value(list);
    }
    case Op::reportListItem: {
      const long long index = in[0].asInteger();
      const ListPtr& list = in[1].asList();
      if (index < 1) {
        throw IndexError("item " + std::to_string(index) + " of a list");
      }
      return list->item(static_cast<size_t>(index));
    }
    case Op::reportListLength:
      return Value(in[0].asList()->length());
    case Op::reportListContainsItem:
      return Value(in[0].asList()->contains(in[1]));
    case Op::reportListIndex: {
      const ListPtr& list = in[1].asList();
      for (size_t i = 1; i <= list->length(); ++i) {
        if (list->item(i).equals(in[0])) return Value(i);
      }
      return Value(0);
    }
    case Op::reportCONS: {
      auto out = List::make();
      out->add(in[0]);
      for (const Value& v : in[1].asList()->items()) out->add(v);
      return Value(out);
    }
    case Op::reportCDR: {
      const ListPtr& list = in[0].asList();
      if (list->empty()) throw IndexError("all but first of empty list");
      auto out = List::make();
      for (size_t i = 2; i <= list->length(); ++i) out->add(list->item(i));
      return Value(out);
    }
    case Op::reportNumbers: {
      const long long lo = in[0].asInteger();
      const long long hi = in[1].asInteger();
      auto out = List::make();
      if (lo <= hi) {
        for (long long v = lo; v <= hi; ++v) out->add(Value(v));
      } else {
        for (long long v = lo; v >= hi; --v) out->add(Value(v));
      }
      return Value(out);
    }
    case Op::reportSorted: {
      auto out = List::make(in[0].asList()->items());
      auto& items = out->mutableItems();
      std::stable_sort(items.begin(), items.end(), lessThanValues);
      return Value(out);
    }

    default:
      throw BlockError("applyPure: " + opcodeName(id(op)) +
                       " is not a pure-table op");
  }
}

}  // namespace psnap::blocks
