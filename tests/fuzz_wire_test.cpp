// Seeded fuzz test for the serve::wire JSON parsers. Two corpora:
// mutations of valid request/response messages (bit flips, truncations,
// splices, duplications) and pure random bytes. The parsers must never
// crash, hang, or read out of bounds — they either return a value or
// nullopt — and any accepted input must survive a serialize→parse round
// trip. The 1 MiB payload cap and the nesting-depth bound are asserted
// explicitly, including a megabyte-deep nesting attack that must be
// rejected without exhausting the stack.
//
// Iteration budget: WISDOM_FUZZ_ITERS (default 10000, the CI budget);
// raise it locally for longer campaigns.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "serve/wire.hpp"

namespace ws = wisdom::serve;

namespace {

int fuzz_iters() {
  if (const char* env = std::getenv("WISDOM_FUZZ_ITERS")) {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 10000;
}

// Deterministic splitmix64: reproducible corpora on every platform.
struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(next() % n);
  }
};

std::vector<std::string> seed_corpus() {
  std::vector<std::string> seeds;
  ws::SuggestionRequest request;
  request.context = "- name: Install nginx\n  ansible.builtin.apt:\n";
  request.prompt = "Install redis \"quoted\" \\ \t\n";
  request.indent = 4;
  request.deadline_ms = 12.5;
  request.trace_id = "f00dfeed";
  seeds.push_back(ws::to_json(request));
  seeds.push_back(ws::to_json(ws::SuggestionRequest{.prompt = "x"}));

  ws::SuggestionResponse response;
  response.ok = true;
  response.snippet = "- name: Install nginx\n  ansible.builtin.apt:\n";
  response.schema_correct = true;
  response.latency_ms = 3.25;
  response.generated_tokens = 17;
  response.cached = true;
  response.trace_id = "deadbeef";
  response.server_timing_ms = {{"cache", 0.01}, {"decode", 2.5}};
  wisdom::analysis::Diagnostic d;
  d.rule = "fqcn";
  d.message = "use the fully qualified name";
  d.severity = wisdom::analysis::Severity::Warning;
  d.span.line = 2;
  d.span.column = 3;
  d.span.begin = 10;
  d.span.end = 14;
  response.diagnostics.push_back(d);
  seeds.push_back(ws::to_json(response));

  ws::SuggestionResponse degraded;
  degraded.ok = false;
  degraded.degraded = true;
  degraded.error = ws::ServiceError::DeadlineExceeded;
  seeds.push_back(ws::to_json(degraded));
  return seeds;
}

std::string mutate(const std::string& seed, Rng& rng) {
  std::string out = seed;
  switch (rng.below(6)) {
    case 0:  // byte flip(s)
      for (std::size_t flips = 1 + rng.below(4); flips && !out.empty();
           --flips)
        out[rng.below(out.size())] =
            static_cast<char>(static_cast<unsigned char>(rng.next()));
      break;
    case 1:  // truncate
      out.resize(rng.below(out.size() + 1));
      break;
    case 2:  // insert random bytes
      for (std::size_t n = 1 + rng.below(8); n; --n)
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(
                                     rng.below(out.size() + 1)),
                   static_cast<char>(static_cast<unsigned char>(rng.next())));
      break;
    case 3: {  // duplicate a slice
      if (out.empty()) break;
      std::size_t begin = rng.below(out.size());
      std::size_t len = 1 + rng.below(out.size() - begin);
      out.insert(rng.below(out.size()), out.substr(begin, len));
      break;
    }
    case 4: {  // splice: random head of out + random tail of seed
      std::size_t cut = rng.below(out.size() + 1);
      out = out.substr(0, cut) + seed.substr(rng.below(seed.size() + 1));
      break;
    }
    default:  // structural noise: sprinkle JSON punctuation
      for (std::size_t n = 1 + rng.below(6); n; --n) {
        const char punct[] = "{}[]\":,\\";
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(
                                     rng.below(out.size() + 1)),
                   punct[rng.below(sizeof(punct) - 1)]);
      }
      break;
  }
  return out;
}

// Every accepted parse must re-serialize to something the parser accepts
// again: the wire format is closed under its own round trip.
void check_roundtrip_closed(const std::string& input) {
  if (auto request = ws::request_from_json(input)) {
    auto again = ws::request_from_json(ws::to_json(*request));
    ASSERT_TRUE(again.has_value()) << "request round-trip not closed";
    EXPECT_EQ(again->prompt, request->prompt);
    EXPECT_EQ(again->context, request->context);
    EXPECT_EQ(again->indent, request->indent);
  }
  if (auto response = ws::response_from_json(input)) {
    auto again = ws::response_from_json(ws::to_json(*response));
    ASSERT_TRUE(again.has_value()) << "response round-trip not closed";
    EXPECT_EQ(again->snippet, response->snippet);
    EXPECT_EQ(again->cached, response->cached);
    EXPECT_EQ(again->error, response->error);
  }
}

void append_utf8(char32_t cp, std::string& out) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

// Writes `cp` the way an ASCII-only JSON encoder does (Python's json.dumps
// by default): printable ASCII raw, JSON's short escapes where they exist,
// every other code point as a \uXXXX escape, and one above U+FFFF as a
// surrogate pair. Either hex case is valid JSON.
void append_ascii_escaped(char32_t cp, bool upper_hex, std::string& out) {
  auto unit = [&](char32_t u) {
    const char* digits = upper_hex ? "0123456789ABCDEF" : "0123456789abcdef";
    out += "\\u";
    for (int shift = 12; shift >= 0; shift -= 4)
      out += digits[(u >> shift) & 0xF];
  };
  switch (cp) {
    case '"': out += "\\\""; return;
    case '\\': out += "\\\\"; return;
    case '\b': out += "\\b"; return;
    case '\f': out += "\\f"; return;
    case '\n': out += "\\n"; return;
    case '\r': out += "\\r"; return;
    case '\t': out += "\\t"; return;
  }
  if (cp >= 0x20 && cp < 0x7F) {
    out += static_cast<char>(cp);
  } else if (cp < 0x10000) {
    unit(cp);
  } else {
    unit(0xD800 + ((cp - 0x10000) >> 10));
    unit(0xDC00 + ((cp - 0x10000) & 0x3FF));
  }
}

// A code point of every UTF-8 length, never a surrogate; ASCII includes
// the control characters and JSON's escaped punctuation.
char32_t random_code_point(Rng& rng) {
  switch (rng.below(4)) {
    case 0:
      return static_cast<char32_t>(rng.below(0x80));
    case 1:
      return static_cast<char32_t>(0x80 + rng.below(0x800 - 0x80));
    case 2: {
      // [0x800, 0x10000) less the 0x800 surrogates at 0xD800.
      auto cp = static_cast<char32_t>(0x800 + rng.below(0xF000));
      return cp >= 0xD800 ? cp + 0x800 : cp;
    }
    default:
      return static_cast<char32_t>(0x10000 + rng.below(0x100000));
  }
}

}  // namespace

TEST(FuzzWire, SeededMutationsNeverCrashAndStayClosed) {
  auto seeds = seed_corpus();
  // The unmutated seeds themselves must parse.
  for (std::size_t i = 0; i < 2; ++i)
    ASSERT_TRUE(ws::request_from_json(seeds[i]).has_value()) << seeds[i];
  for (std::size_t i = 2; i < seeds.size(); ++i)
    ASSERT_TRUE(ws::response_from_json(seeds[i]).has_value()) << seeds[i];

  Rng rng(0x5eedf00dull);
  const int iters = fuzz_iters();
  for (int i = 0; i < iters; ++i) {
    std::string input = mutate(seeds[rng.below(seeds.size())], rng);
    check_roundtrip_closed(input);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(FuzzWire, PureRandomBytesNeverCrash) {
  Rng rng(0xdecafbadull);
  const int iters = fuzz_iters();
  for (int i = 0; i < iters; ++i) {
    std::string input;
    std::size_t len = rng.below(512);
    input.reserve(len);
    for (std::size_t k = 0; k < len; ++k)
      input.push_back(static_cast<char>(static_cast<unsigned char>(rng.next())));
    check_roundtrip_closed(input);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// A client that escapes every non-ASCII character and one that writes raw
// UTF-8 (as json_escape does) must send the same prompt bytes.
TEST(FuzzWire, AsciiEscapedAndRawUtf8ParseToSameBytes) {
  Rng rng(0xa5c11e5cull);
  const int iters = fuzz_iters();
  for (int i = 0; i < iters; ++i) {
    std::string utf8, escaped;
    const bool upper_hex = rng.below(2) == 1;
    for (std::size_t n = rng.below(24); n; --n) {
      const char32_t cp = random_code_point(rng);
      append_utf8(cp, utf8);
      append_ascii_escaped(cp, upper_hex, escaped);
    }
    ws::SuggestionRequest request;
    request.prompt = utf8;
    auto raw = ws::request_from_json(ws::to_json(request));
    auto ascii = ws::request_from_json("{\"prompt\": \"" + escaped + "\"}");
    ASSERT_TRUE(raw.has_value()) << ws::to_json(request);
    ASSERT_TRUE(ascii.has_value()) << escaped;
    ASSERT_EQ(raw->prompt, utf8);
    ASSERT_EQ(ascii->prompt, utf8) << escaped;
  }
}

TEST(FuzzWire, PayloadCapRefusedBeforeParsing) {
  // One byte over the cap: rejected regardless of content; at the cap a
  // syntactically valid message still parses.
  std::string over(ws::kMaxWireBytes + 1, ' ');
  EXPECT_FALSE(ws::request_from_json(over).has_value());
  EXPECT_FALSE(ws::response_from_json(over).has_value());

  std::string padded = "{\"prompt\": \"x\"}";
  padded.append(ws::kMaxWireBytes - padded.size(), ' ');
  ASSERT_EQ(padded.size(), ws::kMaxWireBytes);
  EXPECT_TRUE(ws::request_from_json(padded).has_value());
}

TEST(FuzzWire, DepthBoundHoldsWithoutStackExhaustion) {
  // Nesting just past the documented bound is rejected...
  std::string nested = "{\"prompt\": \"x\", \"extra\": ";
  for (int i = 0; i < 16; ++i) nested += "{\"a\": ";
  nested += "1";
  for (int i = 0; i < 16; ++i) nested += "}";
  nested += "}";
  EXPECT_FALSE(ws::request_from_json(nested).has_value());

  // ...and a ~1 MiB-deep nesting attack must die at the depth check, not
  // by exhausting the recursion stack.
  std::string bomb = "{\"prompt\": ";
  bomb.append(500000, '[');
  EXPECT_FALSE(ws::request_from_json(bomb).has_value());
  std::string brace_bomb;
  brace_bomb.append(500000, '{');
  EXPECT_FALSE(ws::response_from_json(brace_bomb).has_value());
}

TEST(FuzzWire, ShallowNestingWithinBoundStillParses) {
  // server_timing_ms is one level down; unknown nested fields within the
  // bound are tolerated.
  std::string json =
      "{\"ok\": true, \"snippet\": \"s\", \"extra\": {\"a\": {\"b\": 1}},"
      " \"server_timing_ms\": {\"decode\": 1.5}}";
  auto response = ws::response_from_json(json);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->server_timing_ms.at("decode"), 1.5);
}
