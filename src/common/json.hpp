/**
 * @file
 * The one JSON reader and writer behind every document the library
 * reads or writes: campaign archives, telemetry exports, sweep results,
 * model and plan files, and the bench artifacts.
 *
 *  - Value is a plain tree. A number keeps its source token, so a typed
 *    read (parseNumber) is bit-exact for every double and every u64 and
 *    range-checked against the field it lands in.
 *  - parse() is strict: RFC 8259 plus the tokens NaN, Infinity and
 *    -Infinity (the telemetry exporter's spellings for non-finite
 *    doubles). Duplicate keys, trailing bytes, bad escapes, raw control
 *    bytes, \u escapes above U+007F (the writer escapes only control
 *    bytes) and nesting deeper than kMaxDepth throw. Every error is an
 *    ErmsError naming the key path, e.g.
 *    "json: campaign.telemetry_faults.clock_skew_ms: ...".
 *  - write() has one layout: a container of scalars goes on one line,
 *    any other container puts one member per line. Doubles use the
 *    shortest token that parses back to the same bits.
 *
 * Field tables: a stored struct lists its members once, in a
 * `template <class V> void describe(V &v, T &t)` in the struct's
 * namespace (so argument-dependent lookup finds it):
 *
 *     v.field("seed", t.seed);                // number, bool, string,
 *                                             // vector, id map, struct
 *     v.field("mode", t.mode, kModeNames);    // enum via a Name table
 *     v.field("labels", t.labels, enc, dec);  // stored as text
 *     v.constant("format", "erms-plan");      // fixed tag
 *     v.check("series", problem);             // invariant of a field
 *
 * Writer runs the table to build an object. Reader runs it to read one
 * back and throws on a missing key, an unknown key, a value of the
 * wrong type, a number that does not fit its field, or a field whose
 * check reports a problem — so a field cannot be written without being
 * read back.
 */

#ifndef ERMS_COMMON_JSON_HPP
#define ERMS_COMMON_JSON_HPP

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/parse.hpp"

namespace erms::json {

/** Deepest nesting parse() accepts. */
inline constexpr int kMaxDepth = 64;

/** One JSON value. Object members keep their document order. */
struct Value
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    explicit Value(Kind k = Kind::Null, std::string t = {})
        : kind(k), text(std::move(t))
    {}

    Kind kind;
    bool boolean = false;
    /** Number: its token as written. String: the unescaped text. */
    std::string text;
    std::vector<Value> items;
    std::vector<std::pair<std::string, Value>> members;
};

/** Parse one whole document. @throws ErmsError naming the key path. */
Value parse(std::string_view text);

/** The document text, ending with a newline. */
std::string write(const Value &value);

/** Shortest token that parses back to exactly `v`; NaN, Infinity and
 *  -Infinity for non-finite values. */
std::string numberText(double v);

/** @throws ErmsError "json: <path>: <what>". */
[[noreturn]] void fail(const std::string &path, const std::string &what);

/** Key path of member `key` under `path`. */
std::string childPath(const std::string &path, std::string_view key);

/** One entry of an enum's name table. */
template <class E>
struct Name
{
    E value;
    const char *text;
};

template <class E, std::size_t N>
const char *
nameOf(E value, const Name<E> (&names)[N])
{
    for (const Name<E> &name : names)
        if (name.value == value)
            return name.text;
    return "?";
}

template <class T>
Value encode(const T &value);
template <class T>
void decode(const Value &value, T &out, const std::string &path);

/** Field-table visitor that builds an object. */
class Writer
{
  public:
    template <class T>
    void field(const char *key, const T &value) { add(key, encode(value)); }

    template <class E, std::size_t N>
    void
    field(const char *key, const E &value, const Name<E> (&names)[N])
    {
        add(key, Value(Value::Kind::String, nameOf(value, names)));
    }

    template <class T, class Encode, class Decode>
    void
    field(const char *key, const T &value, Encode to_text, Decode)
    {
        add(key, Value(Value::Kind::String, to_text(value)));
    }

    void
    constant(const char *key, const char *text)
    {
        add(key, Value(Value::Kind::String, text));
    }

    /** A check validates what a Reader read; writing skips it. */
    template <class Check>
    void check(const char *, Check) {}

    Value take() { return std::move(object_); }

  private:
    void add(const char *key, Value value)
    {
        object_.members.emplace_back(key, std::move(value));
    }

    Value object_{Value::Kind::Object};
};

/** Field-table visitor that reads an object back. */
class Reader
{
  public:
    /** @throws ErmsError when `object` is not an object. */
    Reader(const Value &object, std::string path);

    template <class T>
    void
    field(const char *key, T &out)
    {
        decode(member(key), out, childPath(path_, key));
    }

    template <class E, std::size_t N>
    void
    field(const char *key, E &out, const Name<E> (&names)[N])
    {
        const std::string text = stringField(key);
        for (const Name<E> &name : names) {
            if (text == name.text) {
                out = name.value;
                return;
            }
        }
        fail(childPath(path_, key), "unknown name '" + text + "'");
    }

    template <class T, class Encode, class Decode>
    void
    field(const char *key, T &out, Encode, Decode from_text)
    {
        const std::string text = stringField(key);
        try {
            out = from_text(text);
        } catch (const ErmsError &e) {
            fail(childPath(path_, key), e.what());
        }
    }

    void constant(const char *key, const char *text);

    /** Validate field `key` once it is read: `problem()` returns what
     *  is wrong with it, or an empty string when nothing is. */
    template <class Check>
    void
    check(const char *key, Check problem)
    {
        const std::string what = problem();
        if (!what.empty())
            fail(childPath(path_, key), what);
    }

    /** @throws ErmsError on a member no field read (an unknown key). */
    void finish() const;

  private:
    const Value &member(const char *key);
    std::string stringField(const char *key);

    const Value &object_;
    std::string path_;
    std::vector<bool> used_;
};

template <class T>
concept Vector = std::same_as<T, std::vector<typename T::value_type>>;

/** A map keyed by an integer id (std::map, std::unordered_map): stored
 *  as an object keyed by the id's decimal text, in ascending order. */
template <class T>
concept IdMap = requires { typename T::mapped_type; } &&
                std::is_integral_v<typename T::key_type>;

/** The JSON form of a scalar, string, vector, id map, Value, or struct
 *  with a describe() table. */
template <class T>
Value
encode(const T &value)
{
    static_assert(!std::is_enum_v<T>, "store enums through a Name table");
    if constexpr (std::is_same_v<T, Value>) {
        return value;
    } else if constexpr (std::is_same_v<T, bool>) {
        Value out(Value::Kind::Bool);
        out.boolean = value;
        return out;
    } else if constexpr (std::is_integral_v<T>) {
        return Value(Value::Kind::Number, std::to_string(value));
    } else if constexpr (std::is_floating_point_v<T>) {
        return Value(Value::Kind::Number, numberText(value));
    } else if constexpr (std::is_convertible_v<const T &, std::string_view>) {
        return Value(Value::Kind::String, std::string(std::string_view(value)));
    } else if constexpr (Vector<T>) {
        Value out(Value::Kind::Array);
        for (const auto &item : value)
            out.items.push_back(encode(item));
        return out;
    } else if constexpr (IdMap<T>) {
        std::vector<typename T::key_type> keys;
        for (const auto &entry : value)
            keys.push_back(entry.first);
        std::sort(keys.begin(), keys.end());
        Value out(Value::Kind::Object);
        for (const auto &key : keys)
            out.members.emplace_back(std::to_string(key),
                                     encode(value.at(key)));
        return out;
    } else {
        // One table serves both directions, so it takes a mutable
        // reference; the Writer only reads through it.
        Writer writer;
        describe(writer, const_cast<T &>(value));
        return writer.take();
    }
}

/** Read `value` into `out`. @throws ErmsError naming `path`. */
template <class T>
void
decode(const Value &value, T &out, const std::string &path)
{
    static_assert(!std::is_enum_v<T>, "store enums through a Name table");
    using Kind = Value::Kind;
    const auto expect = [&](Kind kind, const char *what) {
        if (value.kind != kind)
            fail(path, std::string("expected ") + what);
    };
    if constexpr (std::is_same_v<T, Value>) {
        out = value;
    } else if constexpr (std::is_same_v<T, bool>) {
        expect(Kind::Bool, "true or false");
        out = value.boolean;
    } else if constexpr (std::is_arithmetic_v<T>) {
        expect(Kind::Number, "a number");
        const std::optional<T> parsed = parseNumber<T>(value.text);
        if (!parsed) {
            if constexpr (std::is_integral_v<T>) {
                fail(path, "'" + value.text + "' is not an integer in [" +
                               std::to_string(std::numeric_limits<T>::min()) +
                               ", " +
                               std::to_string(std::numeric_limits<T>::max()) +
                               "]");
            }
            fail(path, "'" + value.text + "' is out of double range");
        }
        out = *parsed;
    } else if constexpr (std::is_same_v<T, std::string>) {
        expect(Kind::String, "a string");
        out = value.text;
    } else if constexpr (Vector<T>) {
        expect(Kind::Array, "an array");
        out.assign(value.items.size(), {});
        for (std::size_t i = 0; i < out.size(); ++i)
            decode(value.items[i], out[i],
                   path + "[" + std::to_string(i) + "]");
    } else if constexpr (IdMap<T>) {
        expect(Kind::Object, "an object");
        out.clear();
        for (const auto &[key, item] : value.members) {
            const auto id = parseNumber<typename T::key_type>(key);
            // Canonical decimal only, so "7" and "07" cannot both
            // name id 7.
            if (!id || std::to_string(*id) != key)
                fail(childPath(path, key), "key is not a decimal id");
            decode(item, out[*id], childPath(path, key));
        }
    } else {
        Reader reader(value, path);
        describe(reader, out);
        reader.finish();
    }
}

/** Parse `text` and read the whole document into a T. */
template <class T>
T
read(std::string_view text)
{
    T out{};
    decode(parse(text), out, "");
    return out;
}

} // namespace erms::json

#endif // ERMS_COMMON_JSON_HPP
