// Tests for the JSON writer (all three number back ends), DOM and parser,
// including writer->parser round-trip properties.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "json/parser.hpp"
#include "json/scan.hpp"
#include "json/value.hpp"
#include "json/writer.hpp"
#include "util/rng.hpp"

namespace dlc::json {
namespace {

TEST(Writer, FlatObject) {
  Writer w;
  w.begin_object();
  w.member("rank", 3);
  w.member("op", "open");
  w.member("dur", 0.25);
  w.end_object();
  EXPECT_EQ(w.str(), R"({"rank":3,"op":"open","dur":0.250000})");
}

TEST(Writer, NestedArrayOfObjects) {
  Writer w;
  w.begin_object();
  w.key("seg");
  w.begin_array();
  for (int i = 0; i < 2; ++i) {
    w.begin_object();
    w.member("off", i);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"seg":[{"off":0},{"off":1}]})");
}

TEST(Writer, EmptyContainers) {
  Writer w;
  w.begin_object();
  w.key("a");
  w.begin_array();
  w.end_array();
  w.key("o");
  w.begin_object();
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"a":[],"o":{}})");
}

TEST(Writer, EscapesStrings) {
  Writer w;
  w.begin_object();
  w.member("path", "/a\\b\"c\n\td");
  w.end_object();
  EXPECT_EQ(w.str(), "{\"path\":\"/a\\\\b\\\"c\\n\\td\"}");
}

TEST(Writer, EscapesControlCharacters) {
  std::string out;
  Writer::append_escaped(out, std::string_view("\x01", 1));
  EXPECT_EQ(out, "\"\\u0001\"");
}

TEST(Writer, SnprintfAndFastItoaAgree) {
  Rng rng(41);
  for (int i = 0; i < 500; ++i) {
    const auto v = static_cast<std::int64_t>(rng.next_u64());
    Writer fast(NumberFormat::kFastItoa);
    Writer slow(NumberFormat::kSnprintf);
    fast.value_int(v);
    slow.value_int(v);
    EXPECT_EQ(fast.str(), slow.str());
  }
}

TEST(Writer, NullFormatElidesDigits) {
  Writer w(NumberFormat::kNull);
  w.begin_object();
  w.member("rank", 123456789);
  w.member("dur", 3.14159);
  w.end_object();
  EXPECT_EQ(w.str(), R"({"rank":0,"dur":0})");
}

TEST(Writer, ResetRetainsNothing) {
  Writer w;
  w.begin_object();
  w.member("a", 1);
  w.end_object();
  w.reset();
  w.begin_object();
  w.end_object();
  EXPECT_EQ(w.str(), "{}");
}

TEST(Writer, BooleansAndNull) {
  Writer w;
  w.begin_array();
  w.value_bool(true);
  w.value_bool(false);
  w.value_null();
  w.end_array();
  EXPECT_EQ(w.str(), "[true,false,null]");
}

TEST(Parser, ParsesScalars) {
  EXPECT_TRUE(parse("null")->is_null());
  EXPECT_EQ(parse("true")->as_bool(), true);
  EXPECT_EQ(parse("-42")->as_int(), -42);
  EXPECT_DOUBLE_EQ(parse("2.5e3")->as_double(), 2500.0);
  EXPECT_EQ(parse("\"hi\"")->as_string(), "hi");
}

TEST(Parser, IntegersStayIntegers) {
  const auto v = parse("9007199254740993");  // > 2^53, breaks via double
  ASSERT_TRUE(v && v->is_int());
  EXPECT_EQ(v->as_int(), 9007199254740993LL);
}

TEST(Parser, HugeIntegerFallsBackToDouble) {
  const auto v = parse("99999999999999999999999999");
  ASSERT_TRUE(v && v->is_double());
  EXPECT_GT(v->as_double(), 1e25);
}

TEST(Parser, ParsesNestedDocument) {
  const auto v = parse(R"({"job":7,"seg":[{"len":100,"dur":0.5}],"ok":true})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->get_int("job"), 7);
  const auto& seg = v->find("seg")->as_array();
  ASSERT_EQ(seg.size(), 1u);
  EXPECT_EQ(seg[0].get_int("len"), 100);
  EXPECT_DOUBLE_EQ(seg[0].get_double("dur"), 0.5);
}

TEST(Parser, WhitespaceTolerant) {
  const auto v = parse(" {\n\t\"a\" : [ 1 , 2 ] }\r\n");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->find("a")->as_array().size(), 2u);
}

TEST(Parser, RejectsMalformedInput) {
  ParseError err;
  EXPECT_FALSE(parse("{", &err).has_value());
  EXPECT_FALSE(parse("{\"a\":}", &err).has_value());
  EXPECT_FALSE(parse("[1,]", &err).has_value());
  EXPECT_FALSE(parse("tru", &err).has_value());
  EXPECT_FALSE(parse("\"unterminated", &err).has_value());
  EXPECT_FALSE(parse("1 2", &err).has_value());
  EXPECT_FALSE(parse("", &err).has_value());
  EXPECT_FALSE(err.message.empty());
}

TEST(Parser, UnescapesSequences) {
  const auto v = parse(R"("a\"b\\c\ndA")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "a\"b\\c\ndA");
}

TEST(Parser, UnicodeEscapeUtf8) {
  const auto v = parse(R"("é€")");  // é €
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "\xC3\xA9\xE2\x82\xAC");
}


TEST(Parser, DeeplyNestedArrays) {
  std::string doc;
  constexpr int kDepth = 200;
  for (int i = 0; i < kDepth; ++i) doc += "[";
  doc += "1";
  for (int i = 0; i < kDepth; ++i) doc += "]";
  const auto v = parse(doc);
  ASSERT_TRUE(v.has_value());
  const Value* cur = &*v;
  for (int i = 0; i < kDepth; ++i) {
    ASSERT_TRUE(cur->is_array());
    cur = &cur->as_array()[0];
  }
  EXPECT_EQ(cur->as_int(), 1);

  // Recursion is bounded: kMaxParseDepth levels parse, one more is an
  // error, and so is 100,000 (which would otherwise overflow the stack).
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(parse(nested(kMaxParseDepth)).has_value());
  ParseError error;
  EXPECT_FALSE(parse(nested(kMaxParseDepth + 1), &error).has_value());
  EXPECT_EQ(error.message, "document nested too deeply");
  EXPECT_EQ(error.offset, static_cast<std::size_t>(kMaxParseDepth));
  EXPECT_FALSE(parse(nested(100000)).has_value());
}

TEST(Parser, Uint64RecordIdsRoundTripExactly) {
  // Record ids are FNV hashes: frequently above INT64_MAX.
  const std::uint64_t id = 0xDEADBEEFCAFEF00DULL;
  Writer w;
  w.begin_object();
  w.member("record_id", id);
  w.end_object();
  const auto doc = parse(w.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get_uint("record_id"), id);
}

TEST(Writer, LargePayloadStaysValid) {
  Writer w;
  w.begin_object();
  w.key("seg");
  w.begin_array();
  for (int i = 0; i < 5000; ++i) {
    w.begin_object();
    w.member("off", static_cast<std::int64_t>(i) * 4096);
    w.member("len", 4096);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  const auto doc = parse(w.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("seg")->as_array().size(), 5000u);
}

TEST(Value, TypedGettersWithFallbacks) {
  const auto v = parse(R"({"i":3,"d":2.5,"s":"x"})");
  EXPECT_EQ(v->get_int("i"), 3);
  EXPECT_EQ(v->get_int("missing", -1), -1);
  EXPECT_EQ(v->get_int("s", -1), -1);  // wrong type -> fallback
  EXPECT_DOUBLE_EQ(v->get_double("d"), 2.5);
  EXPECT_EQ(v->get_string("s"), "x");
  EXPECT_EQ(v->get_string("i", "fb"), "fb");
}

TEST(Value, DumpParsesBack) {
  Object obj;
  obj["n"] = Value(nullptr);
  obj["b"] = Value(true);
  obj["i"] = Value(std::int64_t{-7});
  obj["s"] = Value("text with \"quotes\"");
  obj["a"] = Value(Array{Value(1), Value(2)});
  const Value original(std::move(obj));
  const auto round = parse(original.dump());
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(*round, original);
}

// Property: random documents survive dump->parse.
Value random_value(Rng& rng, int depth) {
  const auto kind = rng.uniform_int(0, depth > 2 ? 3 : 5);
  switch (kind) {
    case 0:
      return Value(rng.uniform_int(-1'000'000, 1'000'000));
    case 1:
      return Value(std::string("s") + std::to_string(rng.uniform_int(0, 999)));
    case 2:
      return Value(rng.bernoulli(0.5));
    case 3:
      return Value(nullptr);
    case 4: {
      Array arr;
      const auto n = rng.uniform_int(0, 4);
      for (int i = 0; i < n; ++i) arr.push_back(random_value(rng, depth + 1));
      return Value(std::move(arr));
    }
    default: {
      Object obj;
      const auto n = rng.uniform_int(0, 4);
      for (int i = 0; i < n; ++i) {
        obj["k" + std::to_string(i)] = random_value(rng, depth + 1);
      }
      return Value(std::move(obj));
    }
  }
}

TEST(Property, RandomDocumentsRoundTrip) {
  Rng rng(4242);
  for (int i = 0; i < 200; ++i) {
    const Value doc = random_value(rng, 0);
    const auto round = parse(doc.dump());
    ASSERT_TRUE(round.has_value()) << doc.dump();
    EXPECT_EQ(*round, doc) << doc.dump();
  }
}

TEST(Property, WriterOutputAlwaysParses) {
  Rng rng(77);
  for (int i = 0; i < 100; ++i) {
    Writer w(i % 2 ? NumberFormat::kFastItoa : NumberFormat::kSnprintf);
    w.begin_object();
    const auto fields = rng.uniform_int(0, 10);
    for (int f = 0; f < fields; ++f) {
      const std::string key = "f" + std::to_string(f);
      switch (rng.uniform_int(0, 3)) {
        case 0:
          w.member(key, rng.uniform_int(-1e9, 1e9));
          break;
        case 1:
          w.member(key, rng.uniform(-1e6, 1e6));
          break;
        case 2:
          w.member(key, "v\"al\\ue\n");
          break;
        default:
          w.member(key, rng.bernoulli(0.5));
          break;
      }
    }
    w.end_object();
    EXPECT_TRUE(parse(w.str()).has_value()) << w.str();
  }
}

// ------------------------------------------------- scanner vs parser ----
//
// Scanner accepts a subset of what json::parse accepts and yields the
// same values on it (scan.hpp).  scanned_value() rebuilds a Value from a
// scan (duplicate keys last-wins, as parse does); a document the scanner
// accepts must parse to an equal Value.  The Simd.* names date from the
// SSE2/AVX2 kernels these inputs were built to stress: widths around the
// 16- and 32-byte strides, escapes at each lane, fuzzed documents.

std::optional<Value> scanned_value(Scanner& s) {
  if (s.peek_object()) {
    if (!s.enter_object()) return std::nullopt;
    Object obj;
    std::string_view key;
    std::string key_scratch;
    int st;
    while ((st = s.next_member(key, key_scratch)) == 1) {
      std::string k(key);
      auto v = scanned_value(s);
      if (!v) return std::nullopt;
      obj.insert_or_assign(std::move(k), std::move(*v));
    }
    if (st != 0) return std::nullopt;
    return Value(std::move(obj));
  }
  if (s.peek_array()) {
    if (!s.enter_array()) return std::nullopt;
    Array arr;
    int st;
    while ((st = s.next_element()) == 1) {
      auto v = scanned_value(s);
      if (!v) return std::nullopt;
      arr.push_back(std::move(*v));
    }
    if (st != 0) return std::nullopt;
    return Value(std::move(arr));
  }
  // Literals come back as kOther: re-read their bytes.
  std::string_view span;
  if (!s.value_span(span)) return std::nullopt;
  Scanner one(span);
  Token tok;
  std::string scratch;
  if (!one.scan_token(tok, scratch)) return std::nullopt;
  switch (tok.kind) {
    case Token::Kind::kInt:
      return Value(tok.i);
    case Token::Kind::kUint:
      return Value(tok.u);
    case Token::Kind::kDouble:
      return Value(tok.d);
    case Token::Kind::kString:
      return Value(std::string(tok.sv));
    default:
      if (span == "null") return Value(nullptr);
      return Value(span == "true");
  }
}

/// True when the scanner accepts `doc`; then json::parse must accept it
/// with an equal value.
bool scan_agrees_with_parse(const std::string& doc) {
  Scanner s(doc);
  const std::optional<Value> scanned = scanned_value(s);
  if (!scanned || !s.at_end()) return false;
  const std::optional<Value> parsed = parse(doc);
  EXPECT_TRUE(parsed.has_value()) << "scanner accepted, parse rejected: "
                                  << doc;
  if (parsed) {
    EXPECT_EQ(*scanned, *parsed) << doc;
  }
  return true;
}

TEST(Simd, LevelsAgreeOnConnectorShapedPayload) {
  Writer w;
  w.begin_object();
  w.member("uid", std::uint64_t{99066});
  w.member("exe", "/projects/ovis/bench/mpi-io-test");
  w.member("rank", std::int64_t{3});
  w.member("op", "write");
  w.key("seg");
  w.begin_array();
  w.begin_object();
  w.member("off", std::int64_t{4096});
  w.member("dur", 0.000125);
  w.member("data_set", "N/A");
  w.end_object();
  w.end_array();
  w.end_object();
  EXPECT_TRUE(scan_agrees_with_parse(w.str()));
}

TEST(Simd, LevelsAgreeAcrossVectorWidthBoundaries) {
  // Whitespace runs and string bodies of every length 0..96, each
  // putting the structural byte at a different offset.  All are valid.
  for (int n = 0; n <= 96; ++n) {
    const std::string ws(static_cast<std::size_t>(n), ' ');
    EXPECT_TRUE(scan_agrees_with_parse("{" + ws + "\"k\"" + ws + ":" + ws +
                                       "1" + ws + "}"));
    const std::string body(static_cast<std::size_t>(n), 'x');
    EXPECT_TRUE(scan_agrees_with_parse("{\"k\":\"" + body + "\"}"));
    // An escape right after the run, forcing the scratch path.
    EXPECT_TRUE(
        scan_agrees_with_parse("{\"k\":\"" + body + "\\n tail\"}"));
    EXPECT_TRUE(
        scan_agrees_with_parse("{\"k\":\"" + body + "\\\" tail\"}"));
    EXPECT_TRUE(
        scan_agrees_with_parse("{\"k\":\"" + body + "\\u20ac tail\"}"));
  }
  // All four JSON whitespace bytes.
  EXPECT_TRUE(
      scan_agrees_with_parse("{ \t\n\r \"k\" \t : \n [1, \t2,\r3] }"));
}

TEST(Simd, LevelsAgreeOnFuzzedAndMutatedDocuments) {
  Rng rng(9091);
  int mutants_accepted = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string doc = random_value(rng, 0).dump();
    EXPECT_TRUE(scan_agrees_with_parse(doc)) << doc;
    // Truncations and byte flips: whatever the scanner still accepts
    // must parse to the same value.
    std::string cut = doc;
    cut.resize(static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(doc.size()))));
    mutants_accepted += scan_agrees_with_parse(cut);
    std::string flipped = doc;
    if (!flipped.empty()) {
      const auto at = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(flipped.size()) - 1));
      flipped[at] = static_cast<char>(rng.uniform_int(1, 127));
      mutants_accepted += scan_agrees_with_parse(flipped);
    }
  }
  EXPECT_GT(mutants_accepted, 0);  // the mutant branch compared something
}

}  // namespace
}  // namespace dlc::json
