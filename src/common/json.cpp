#include "common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstring>

namespace erms::json {

void
fail(const std::string &path, const std::string &what)
{
    throw ErmsError("json: " + (path.empty() ? "document" : path) + ": " +
                    what);
}

std::string
childPath(const std::string &path, std::string_view key)
{
    return path.empty() ? std::string(key) : path + "." + std::string(key);
}

std::string
numberText(double v)
{
    if (std::isnan(v))
        return "NaN";
    if (std::isinf(v))
        return v > 0.0 ? "Infinity" : "-Infinity";
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

namespace {

/** Escape letters and the bytes they stand for, in matching order. */
constexpr char kEscapes[] = "\"\\/bfnrt";
constexpr char kEscaped[] = "\"\\/\b\f\n\r\t";

/** Recursive-descent parser; `path_` is the key path of the value being
 *  read, so every error names where it happened. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    Value
    document()
    {
        Value out = value(0);
        skipSpace();
        if (pos_ != text_.size())
            error("trailing bytes after the document");
        return out;
    }

  private:
    [[noreturn]] void
    error(const std::string &what) const
    {
        fail(path_, what + " at byte " + std::to_string(pos_));
    }

    bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

    bool
    atDigit() const
    {
        return pos_ < text_.size() && text_[pos_] >= '0' &&
               text_[pos_] <= '9';
    }

    /** Consume `word` when the input continues with it. */
    bool
    take(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    void
    skipSpace()
    {
        while (at(' ') || at('\t') || at('\n') || at('\r'))
            ++pos_;
    }

    void
    digits()
    {
        if (!atDigit())
            error("expected a digit");
        while (atDigit())
            ++pos_;
    }

    Value
    value(int depth)
    {
        skipSpace();
        if (at('{') || at('['))
            return container(depth + 1);
        if (at('"'))
            return Value(Value::Kind::String, string());
        Value flag(Value::Kind::Bool);
        flag.boolean = take("true");
        if (flag.boolean || take("false"))
            return flag;
        if (take("null"))
            return Value();
        return number();
    }

    /** An object or array; members are separated by ',' and keyed
     *  (objects) by unique strings. */
    Value
    container(int depth)
    {
        if (depth > kMaxDepth)
            error("nesting deeper than " + std::to_string(kMaxDepth));
        const bool object = text_[pos_++] == '{';
        const char close = object ? '}' : ']';
        Value out(object ? Value::Kind::Object : Value::Kind::Array);
        const std::size_t base = path_.size();
        skipSpace();
        for (bool more = !at(close); more;) {
            path_.resize(base);
            skipSpace();
            if (object) {
                if (!at('"'))
                    error("expected a string key");
                std::string key = string();
                path_ = childPath(path_, key);
                for (const auto &member : out.members)
                    if (member.first == key)
                        error("duplicate key");
                skipSpace();
                if (!take(":"))
                    error("expected ':'");
                Value item = value(depth);
                out.members.emplace_back(std::move(key), std::move(item));
            } else {
                path_ += "[" + std::to_string(out.items.size()) + "]";
                out.items.push_back(value(depth));
            }
            // Separator errors still name the member just read.
            skipSpace();
            more = !at(close);
            if (more && !take(","))
                error(std::string("expected ',' or '") + close + "'");
        }
        ++pos_;
        path_.resize(base);
        return out;
    }

    /** RFC 8259 number, or NaN / Infinity / -Infinity; the token is
     *  kept verbatim. */
    Value
    number()
    {
        const std::size_t start = pos_;
        if (!take("NaN") && !take("Infinity") && !take("-Infinity")) {
            take("-");
            if (!take("0")) {
                if (!atDigit())
                    error("expected a value");
                digits();
            }
            if (take("."))
                digits();
            if (take("e") || take("E")) {
                if (!take("+"))
                    take("-");
                digits();
            }
        }
        return Value(Value::Kind::Number,
                     std::string(text_.substr(start, pos_ - start)));
    }

    std::string
    string()
    {
        ++pos_; // opening quote
        std::string out;
        while (!at('"')) {
            if (pos_ == text_.size())
                error("unterminated string");
            const char c = text_[pos_++];
            if (static_cast<unsigned char>(c) < 0x20)
                error("raw control byte in a string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (take("u")) {
                unsigned code = 0;
                const char *hex = text_.data() + pos_;
                const auto [end, ec] = std::from_chars(
                    hex, hex + std::min<std::size_t>(4, text_.size() - pos_),
                    code, 16);
                if (ec != std::errc{} || end != hex + 4)
                    error("bad \\u escape");
                // The writer stores every byte above ASCII raw, so an
                // escape for one is foreign.
                if (code > 0x7f)
                    error("\\u escape above U+007F");
                out += static_cast<char>(code);
                pos_ += 4;
                continue;
            }
            const char *escape = pos_ < text_.size() && !at('\0')
                                     ? std::strchr(kEscapes, text_[pos_])
                                     : nullptr;
            if (escape == nullptr)
                error("bad escape");
            out += kEscaped[escape - kEscapes];
            ++pos_;
        }
        ++pos_;
        return out;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::string path_;
};

void
writeString(std::string &out, const std::string &text)
{
    out += '"';
    for (const char c : text) {
        const char *escape = c == '\0' ? nullptr : std::strchr(kEscaped, c);
        if (escape != nullptr && c != '/') {
            out += '\\';
            out += kEscapes[escape - kEscaped];
        } else if (static_cast<unsigned char>(c) < 0x20) {
            static constexpr char kHex[] = "0123456789abcdef";
            out += "\\u00";
            out += kHex[c >> 4];
            out += kHex[c & 0xf];
        } else {
            out += c;
        }
    }
    out += '"';
}

void
writeValue(std::string &out, const Value &value, int depth)
{
    using Kind = Value::Kind;
    const auto container = [](const Value &v) {
        return v.kind == Kind::Array || v.kind == Kind::Object;
    };
    if (value.kind == Kind::String)
        return writeString(out, value.text);
    if (!container(value)) {
        out += value.kind == Kind::Number ? value.text
               : value.kind == Kind::Null ? "null"
               : value.boolean            ? "true"
                                          : "false";
        return;
    }

    const bool object = value.kind == Kind::Object;
    const std::size_t size =
        object ? value.members.size() : value.items.size();
    const auto item = [&](std::size_t i) -> const Value & {
        return object ? value.members[i].second : value.items[i];
    };
    bool flat = true;
    for (std::size_t i = 0; i < size; ++i)
        flat = flat && !container(item(i));
    const std::string indent(2 * static_cast<std::size_t>(depth), ' ');

    out += object ? '{' : '[';
    for (std::size_t i = 0; i < size; ++i) {
        out += i == 0 ? "" : flat ? ", " : ",";
        if (!flat)
            out += "\n  " + indent;
        if (object) {
            writeString(out, value.members[i].first);
            out += ": ";
        }
        writeValue(out, item(i), depth + 1);
    }
    if (!flat && size > 0)
        out += "\n" + indent;
    out += object ? '}' : ']';
}

} // namespace

Value
parse(std::string_view text)
{
    return Parser(text).document();
}

std::string
write(const Value &value)
{
    std::string out;
    writeValue(out, value, 0);
    return out + "\n";
}

Reader::Reader(const Value &object, std::string path)
    : object_(object), path_(std::move(path)),
      used_(object.members.size(), false)
{
    if (object_.kind != Value::Kind::Object)
        fail(path_, "expected an object");
}

const Value &
Reader::member(const char *key)
{
    for (std::size_t i = 0; i < object_.members.size(); ++i) {
        if (object_.members[i].first == key) {
            used_[i] = true;
            return object_.members[i].second;
        }
    }
    fail(childPath(path_, key), "missing key");
}

std::string
Reader::stringField(const char *key)
{
    std::string text;
    field(key, text);
    return text;
}

void
Reader::constant(const char *key, const char *text)
{
    const std::string found = stringField(key);
    if (found != text)
        fail(childPath(path_, key),
             "expected '" + std::string(text) + "', got '" + found + "'");
}

void
Reader::finish() const
{
    for (std::size_t i = 0; i < used_.size(); ++i)
        if (!used_[i])
            fail(childPath(path_, object_.members[i].first), "unknown key");
}

} // namespace erms::json
