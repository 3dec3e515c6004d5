//===- obs/Json.cpp - Minimal JSON writer and parser ------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "support/Assert.h"
#include "support/Format.h"
#include "support/StringUtil.h"

using namespace pf;
using namespace pf::obs;

std::string pf::obs::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20)
        Out += formatStr("\\u%04x", C);
      else
        Out += static_cast<char>(C);
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

void JsonWriter::separate() {
  if (PendingKey) {
    PendingKey = false;
    return; // The key already emitted a comma if one was needed.
  }
  if (!NeedComma.empty()) {
    if (NeedComma.back())
      Out += ',';
    NeedComma.back() = true;
  }
}

JsonWriter &JsonWriter::beginObject() {
  separate();
  Out += '{';
  NeedComma.push_back(false);
  return *this;
}

JsonWriter &JsonWriter::endObject() {
  PF_ASSERT(!NeedComma.empty(), "endObject without beginObject");
  NeedComma.pop_back();
  Out += '}';
  return *this;
}

JsonWriter &JsonWriter::beginArray() {
  separate();
  Out += '[';
  NeedComma.push_back(false);
  return *this;
}

JsonWriter &JsonWriter::endArray() {
  PF_ASSERT(!NeedComma.empty(), "endArray without beginArray");
  NeedComma.pop_back();
  Out += ']';
  return *this;
}

JsonWriter &JsonWriter::key(const std::string &K) {
  PF_ASSERT(!PendingKey, "key after key");
  separate();
  Out += '"';
  Out += jsonEscape(K);
  Out += "\":";
  PendingKey = true;
  return *this;
}

JsonWriter &JsonWriter::value(const std::string &S) {
  separate();
  Out += '"';
  Out += jsonEscape(S);
  Out += '"';
  return *this;
}

JsonWriter &JsonWriter::value(const char *S) {
  return value(std::string(S));
}

namespace {

/// Significant digits of \p D's shortest round-trip text (std::to_chars'
/// shortest scientific form). No %.*g precision below it parses back to D.
int shortestDigits(double D) {
  char Buf[32];
  const auto R = std::to_chars(Buf, Buf + sizeof(Buf), D,
                               std::chars_format::scientific);
  int Digits = 0;
  for (const char *P = Buf; P != R.ptr && *P != 'e'; ++P)
    Digits += *P >= '0' && *P <= '9';
  return Digits;
}

} // namespace

JsonWriter &JsonWriter::value(double D) {
  separate();
  if (!std::isfinite(D)) {
    // JSON has no Infinity/NaN; null is the conventional stand-in.
    Out += "null";
    return *this;
  }
  // The lowest %.*g precision whose text parses back exactly, %.17g (which
  // always does) when none below 17 does. Precisions under the shortest
  // round-trip digit count cannot succeed, so the search starts there; it
  // may still need a digit more next to a power of two, where the nearest
  // decimal of that many digits falls outside the narrower lower half of
  // the rounding interval.
  char Buf[32];
  for (int Prec = shortestDigits(D); Prec < 17; ++Prec) {
    const auto R = std::to_chars(Buf, Buf + sizeof(Buf), D,
                                 std::chars_format::general, Prec);
    double Back = 0.0;
    const auto P = std::from_chars(Buf, R.ptr, Back);
    if (P.ec == std::errc() && Back == D) {
      Out.append(Buf, R.ptr);
      return *this;
    }
  }
  appendDouble(Out, D);
  return *this;
}

JsonWriter &JsonWriter::value(int64_t I) {
  separate();
  appendInt(Out, I);
  return *this;
}

JsonWriter &JsonWriter::value(bool B) {
  separate();
  Out += B ? "true" : "false";
  return *this;
}

JsonWriter &JsonWriter::nullValue() {
  separate();
  Out += "null";
  return *this;
}

std::string JsonWriter::take() {
  PF_ASSERT(NeedComma.empty(), "take() with unclosed containers");
  std::string S = std::move(Out);
  Out.clear();
  PendingKey = false;
  return S;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

struct Parser {
  const std::string &Text;
  size_t Pos = 0;
  std::string Error;

  explicit Parser(const std::string &Text) : Text(Text) {}

  bool fail(const std::string &Msg) {
    if (Error.empty())
      Error = formatStr("at offset %zu: %s", Pos, Msg.c_str());
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  bool consume(char C) {
    skipWs();
    if (Pos >= Text.size() || Text[Pos] != C)
      return fail(formatStr("expected '%c'", C));
    ++Pos;
    return true;
  }

  bool parseValue(JsonValue &V) {
    skipWs();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    const char C = Text[Pos];
    if (C == '{')
      return parseObject(V);
    if (C == '[')
      return parseArray(V);
    if (C == '"') {
      V.K = JsonValue::Kind::String;
      return parseString(V.Str);
    }
    if (C == 't' || C == 'f')
      return parseKeyword(V);
    if (C == 'n') {
      if (Text.compare(Pos, 4, "null") != 0)
        return fail("bad keyword");
      Pos += 4;
      V.K = JsonValue::Kind::Null;
      return true;
    }
    return parseNumber(V);
  }

  bool parseKeyword(JsonValue &V) {
    if (Text.compare(Pos, 4, "true") == 0) {
      Pos += 4;
      V.K = JsonValue::Kind::Bool;
      V.Boolean = true;
      return true;
    }
    if (Text.compare(Pos, 5, "false") == 0) {
      Pos += 5;
      V.K = JsonValue::Kind::Bool;
      V.Boolean = false;
      return true;
    }
    return fail("bad keyword");
  }

  bool parseNumber(JsonValue &V) {
    const size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    if (Pos == Start)
      return fail("expected a value");
    char *End = nullptr;
    const std::string Num = Text.substr(Start, Pos - Start);
    V.Number = std::strtod(Num.c_str(), &End);
    if (End != Num.c_str() + Num.size())
      return fail("malformed number");
    V.K = JsonValue::Kind::Number;
    return true;
  }

  bool parseString(std::string &Out) {
    if (!consume('"'))
      return false;
    Out.clear();
    while (Pos < Text.size() && Text[Pos] != '"') {
      char C = Text[Pos++];
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        return fail("unterminated escape");
      const char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I < 4; ++I) {
          const char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("bad \\u escape digit");
        }
        // Encode as UTF-8 (surrogate pairs are passed through untouched —
        // the emitter never produces them).
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
    if (Pos >= Text.size())
      return fail("unterminated string");
    ++Pos; // Closing quote.
    return true;
  }

  bool parseArray(JsonValue &V) {
    if (!consume('['))
      return false;
    V.K = JsonValue::Kind::Array;
    skipWs();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      JsonValue Elem;
      if (!parseValue(Elem))
        return false;
      V.Array.push_back(std::move(Elem));
      skipWs();
      if (Pos < Text.size() && Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      return consume(']');
    }
  }

  bool parseObject(JsonValue &V) {
    if (!consume('{'))
      return false;
    V.K = JsonValue::Kind::Object;
    skipWs();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      std::string Key;
      skipWs();
      if (!parseString(Key))
        return false;
      if (!consume(':'))
        return false;
      JsonValue Member;
      if (!parseValue(Member))
        return false;
      V.Object.emplace_back(std::move(Key), std::move(Member));
      skipWs();
      if (Pos < Text.size() && Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      return consume('}');
    }
  }
};

} // namespace

const JsonValue *JsonValue::find(const std::string &Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &[Name, V] : Object)
    if (Name == Key)
      return &V;
  return nullptr;
}

double JsonValue::numberOr(const std::string &Key, double Default) const {
  const JsonValue *V = find(Key);
  return V && V->isNumber() ? V->Number : Default;
}

std::optional<JsonValue> JsonValue::parse(const std::string &Text,
                                          std::string *Error) {
  Parser P(Text);
  JsonValue V;
  if (!P.parseValue(V)) {
    if (Error)
      *Error = P.Error;
    return std::nullopt;
  }
  P.skipWs();
  if (P.Pos != Text.size()) {
    if (Error)
      *Error = formatStr("trailing characters at offset %zu", P.Pos);
    return std::nullopt;
  }
  return V;
}
