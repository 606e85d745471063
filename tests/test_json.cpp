/**
 * @file
 * Tests for the JSON module (src/common/json.hpp): the strict grammar
 * (every rejection names its key path), exact scalar round trips
 * through write -> parse -> typed read, the fixed write layout, and the
 * field-table visitors (missing, unknown and mistyped keys, enum name
 * tables, id maps, constants).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace erms {
namespace {

/** Message of the ErmsError `fn` throws ("" when it does not throw). */
template <class Fn>
std::string
errorOf(Fn fn)
{
    try {
        fn();
    } catch (const ErmsError &e) {
        return e.what();
    }
    return "";
}

TEST(JsonGrammar, AcceptsRfc8259AndNonFiniteTokens)
{
    const char *accepted[] = {
        "0", "-0", "1", "-12", "1.5", "1e5", "1E+5", "2.5e-3", "-0.0e0",
        "NaN", "Infinity", "-Infinity", "true", "false", "null", "\"\"",
        "\"a\\\"b\\\\c\\/\\b\\f\\n\\r\\t\\u0041\\u001f\"", "[]", "{}",
        " \t\r\n[1, [2, {}], {\"a\": null}] \n",
        "{\"a\": {\"b\": [true, false]}, \"c\": \"\xc3\xa9\"}",
    };
    for (const char *text : accepted)
        EXPECT_NO_THROW(json::parse(text)) << text;
}

TEST(JsonGrammar, RejectionsNameTheirPath)
{
    const std::string deep = std::string(json::kMaxDepth + 1, '[') +
                             std::string(json::kMaxDepth + 1, ']');
    const std::pair<std::string, const char *> rejected[] = {
        {"{\"a\": 01}", "a:"},
        {"{\"a\": 1.}", "a:"},
        {"{\"a\": .5}", "a:"},
        {"{\"a\": +1}", "a:"},
        {"{\"a\": nan}", "a:"},
        {"{\"a\": -Inf}", "a:"},
        {"{\"a\": 1e}", "a:"},
        {"{\"a\": [1, 2,]}", "a[2]:"},
        {"{\"a\": 1,}", "document:"},
        {"{\"a\": {\"b\": \"x\ny\"}}", "a.b:"},
        {"{\"a\": \"\\q\"}", "a:"},
        {"{\"a\": \"\\u00e9\"}", "a:"},
        {"{\"a\": \"\\u12\"}", "a:"},
        {"{\"a\": \"open", "a:"},
        {"{\"a\": 1, \"a\": 2}", "a:"},
        {"{\"a\": {\"b\": 1, \"b\": 1}}", "a.b:"},
        {"{\"a\": 1} x", "document:"},
        {"{\"a\": 1}{}", "document:"},
        {"[1] 2", "document:"},
        {"{\"a\": tru}", "a:"},
        {"{\"a\" 1}", "a:"},
        {"{a: 1}", "document:"},
        {"", "document:"},
        {"[{\"k\": [0, 1x]}]", "[0].k[1]:"},
        {deep, "[0][0][0]"},
    };
    for (const auto &[text, path] : rejected) {
        const std::string message = errorOf([&] { json::parse(text); });
        EXPECT_NE(message.find(std::string("json: ") + path),
                  std::string::npos)
            << text << " -> '" << message << "'";
    }
    EXPECT_NE(errorOf([&] { json::parse(deep); }).find("nesting deeper"),
              std::string::npos);
}

/** write -> parse -> typed read of one scalar. */
template <class T>
T
roundTrip(const T &value)
{
    T out{};
    json::decode(json::parse(json::write(json::encode(value))), out, "x");
    return out;
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(JsonScalars, DoublesRoundTripBitExact)
{
    const double values[] = {
        0.0,
        -0.0,
        0.1,
        1.0 / 3.0,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        DBL_MIN,
        DBL_MAX,
        -DBL_MAX,
        DBL_EPSILON,
        1e16,
        123456789012345680000.0,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
    };
    for (const double v : values)
        EXPECT_TRUE(sameBits(roundTrip(v), v)) << json::numberText(v);
    EXPECT_EQ(json::numberText(0.1), "0.1");
    EXPECT_EQ(json::numberText(-0.0), "-0");
    EXPECT_EQ(json::numberText(-std::numeric_limits<double>::infinity()),
              "-Infinity");
}

TEST(JsonScalars, IntegersRoundTripAtTheirLimits)
{
    constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
    for (const std::uint64_t v :
         {std::uint64_t{0}, (std::uint64_t{1} << 53) + 1, kU64Max})
        EXPECT_EQ(roundTrip(v), v);
    for (const int v : {std::numeric_limits<int>::min(), -1, 0,
                        std::numeric_limits<int>::max()})
        EXPECT_EQ(roundTrip(v), v);
    EXPECT_EQ(roundTrip(std::numeric_limits<std::uint32_t>::max()),
              std::numeric_limits<std::uint32_t>::max());
    EXPECT_TRUE(roundTrip(true));
    EXPECT_FALSE(roundTrip(false));
}

TEST(JsonScalars, StringsRoundTripEveryByte)
{
    std::string all;
    for (int c = 1; c < 256; ++c)
        all += static_cast<char>(c);
    for (const std::string &s :
         {std::string(), std::string("quote \" back \\ slash /"),
          std::string("tab\tnewline\ncr\r\x01\x1f"), std::string("\0z", 2),
          all})
        EXPECT_EQ(roundTrip(s), s);
    // Only control bytes, quotes and backslashes are escaped.
    EXPECT_EQ(json::write(json::encode(std::string("a\"\\\n\x01\x7f"))),
              "\"a\\\"\\\\\\n\\u0001\x7f\"\n");
}

TEST(JsonScalars, TypedReadsRejectValuesThatDoNotFit)
{
    const std::pair<const char *, std::string> cases[] = {
        {"2147483648", "is not an integer in [-2147483648, 2147483647]"},
        {"1.0", "is not an integer"},
        {"1e3", "is not an integer"},
        {"NaN", "is not an integer"},
        {"\"1\"", "expected a number"},
    };
    for (const auto &[token, what] : cases) {
        int out = 0;
        const std::string message = errorOf([&] {
            json::decode(json::parse(token), out, "cfg.count");
        });
        EXPECT_NE(message.find("json: cfg.count: "), std::string::npos)
            << message;
        EXPECT_NE(message.find(what), std::string::npos) << message;
    }
    std::uint64_t u = 0;
    EXPECT_THROW(json::decode(json::parse("-1"), u, "u"), ErmsError);
    EXPECT_THROW(json::decode(json::parse("18446744073709551616"), u, "u"),
                 ErmsError);
    double d = 0.0;
    EXPECT_THROW(json::decode(json::parse("1e999"), d, "d"), ErmsError);
    bool b = false;
    EXPECT_THROW(json::decode(json::parse("1"), b, "b"), ErmsError);
}

TEST(JsonWrite, FlatContainersOnOneLineOthersOneMemberPerLine)
{
    json::Value doc(json::Value::Kind::Object);
    doc.members.emplace_back("n", json::encode(1.5));
    doc.members.emplace_back("xs", json::encode(std::vector<int>{1, 2}));
    doc.members.emplace_back("empty", json::Value(json::Value::Kind::Array));
    json::Value rows(json::Value::Kind::Array);
    rows.items.push_back(json::parse("{\"a\": 1, \"b\": \"s\"}"));
    doc.members.emplace_back("rows", rows);
    EXPECT_EQ(json::write(doc), "{\n"
                                "  \"n\": 1.5,\n"
                                "  \"xs\": [1, 2],\n"
                                "  \"empty\": [],\n"
                                "  \"rows\": [\n"
                                "    {\"a\": 1, \"b\": \"s\"}\n"
                                "  ]\n"
                                "}\n");
    // Writing a parsed document reproduces it byte for byte.
    EXPECT_EQ(json::write(json::parse(json::write(doc))), json::write(doc));
}

// ---------------------------------------------------------------------
// Field tables
// ---------------------------------------------------------------------

enum class Shape
{
    Round,
    Square,
};

inline constexpr json::Name<Shape> kShapeNames[] = {
    {Shape::Round, "round"},
    {Shape::Square, "square"},
};

struct Inner
{
    std::uint64_t seed = 7;
    std::vector<double> xs;
};

struct Outer
{
    int count = 0;
    Shape shape = Shape::Round;
    std::string label;
    Inner inner;
    std::map<std::uint32_t, int> perId;
};

template <class V>
void
describe(V &v, Inner &t)
{
    v.field("seed", t.seed);
    v.field("xs", t.xs);
}

template <class V>
void
describe(V &v, Outer &t)
{
    v.constant("format", "outer");
    v.field("count", t.count);
    v.field("shape", t.shape, kShapeNames);
    v.field("label", t.label);
    v.field("inner", t.inner);
    v.field("per_id", t.perId);
}

Outer
sample()
{
    Outer t;
    t.count = -3;
    t.shape = Shape::Square;
    t.label = "x";
    t.inner.seed = std::numeric_limits<std::uint64_t>::max();
    t.inner.xs = {0.1, -0.0};
    t.perId = {{10, 1}, {2, 5}};
    return t;
}

TEST(JsonFieldTable, RoundTripsAndWritesIdsAscending)
{
    const std::string text = json::write(json::encode(sample()));
    EXPECT_NE(text.find("\"per_id\": {\"2\": 5, \"10\": 1}"),
              std::string::npos)
        << text;
    const Outer back = json::read<Outer>(text);
    EXPECT_EQ(back.count, -3);
    EXPECT_EQ(back.shape, Shape::Square);
    EXPECT_EQ(back.inner.seed, sample().inner.seed);
    ASSERT_EQ(back.inner.xs.size(), 2u);
    EXPECT_TRUE(sameBits(back.inner.xs[1], -0.0));
    EXPECT_EQ(back.perId, sample().perId);
    EXPECT_EQ(json::write(json::encode(back)), text);
}

TEST(JsonFieldTable, ReaderRejectsMissingUnknownAndMistypedKeys)
{
    const std::string good = json::write(json::encode(sample()));
    const auto replaced = [&](const std::string &from, const std::string &to) {
        std::string text = good;
        const std::size_t at = text.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return text.replace(at, from.size(), to);
    };
    const std::pair<std::string, const char *> cases[] = {
        {replaced("\"seed\"", "\"sed\""), "inner.seed: missing key"},
        {replaced("\"count\": -3", "\"count\": -3, \"extra\": 1"),
         "extra: unknown key"},
        {replaced("\"square\"", "\"oval\""), "shape: unknown name 'oval'"},
        {replaced("\"outer\"", "\"inner\""),
         "format: expected 'outer', got 'inner'"},
        {replaced("\"x\"", "7"), "label: expected a string"},
        {replaced("\"2\": 5", "\"02\": 5"), "per_id.02: key is not a decimal"},
        {replaced("\"10\": 1", "\"-1\": 1"), "per_id.-1: key is not a decimal"},
        {replaced("[0.1, -0]", "{}"), "inner.xs: expected an array"},
        {"[]", "document: expected an object"},
    };
    for (const auto &[text, what] : cases) {
        const std::string message =
            errorOf([&] { json::read<Outer>(text); });
        EXPECT_NE(message.find(what), std::string::npos)
            << what << " -> '" << message << "'";
    }
}

} // namespace
} // namespace erms
