//===- obs/Json.h - Minimal JSON writer and parser --------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JSON substrate of the observability layer: a streaming writer with
/// automatic comma/nesting management (used by the Chrome-trace exporter,
/// the perf report and the bench JSON emitter) and a small
/// recursive-descent parser (used by tests and the `pf_json_check` smoke
/// tool to prove the emitted files actually parse). Deliberately tiny — no
/// external dependency, no DOM mutation API.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_OBS_JSON_H
#define PIMFLOW_OBS_JSON_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace pf::obs {

/// Escapes \p S for embedding inside a JSON string literal (quotes not
/// included).
std::string jsonEscape(const std::string &S);

/// Streaming JSON writer. Usage:
/// \code
///   JsonWriter W;
///   W.beginObject().key("x").value(1).key("l").beginArray().value("a")
///    .endArray().endObject();
///   std::string S = W.take();
/// \endcode
class JsonWriter {
public:
  JsonWriter &beginObject();
  JsonWriter &endObject();
  JsonWriter &beginArray();
  JsonWriter &endArray();
  JsonWriter &key(const std::string &K);
  JsonWriter &value(const std::string &S);
  JsonWriter &value(const char *S);
  JsonWriter &value(double D);
  JsonWriter &value(int64_t I);
  JsonWriter &value(int I) { return value(static_cast<int64_t>(I)); }
  JsonWriter &value(bool B);
  JsonWriter &nullValue();

  /// Shorthand for key(K).value(V).
  template <typename T> JsonWriter &field(const std::string &K, T V) {
    return key(K).value(V);
  }

  /// Returns the document and resets the writer.
  std::string take();
  const std::string &str() const { return Out; }

private:
  void separate();

  std::string Out;
  /// One entry per open container: whether the next element needs a comma.
  std::vector<bool> NeedComma;
  bool PendingKey = false;
};

/// A parsed JSON document node.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind K = Kind::Null;
  bool Boolean = false;
  double Number = 0.0;
  std::string Str;
  std::vector<JsonValue> Array;
  /// Insertion-ordered key/value pairs.
  std::vector<std::pair<std::string, JsonValue>> Object;

  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue *find(const std::string &Key) const;
  /// Number value of member \p Key, or \p Default.
  double numberOr(const std::string &Key, double Default) const;

  /// Parses \p Text (must be a single JSON document; trailing garbage is an
  /// error). Returns nullopt and fills \p Error on malformed input.
  static std::optional<JsonValue> parse(const std::string &Text,
                                        std::string *Error = nullptr);
};

} // namespace pf::obs

#endif // PIMFLOW_OBS_JSON_H
