#include "text/bpe.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <unordered_map>

#include "util/io.hpp"

namespace wisdom::text {

namespace util = wisdom::util;

namespace {

constexpr TokenId byte_token(unsigned char b) {
  return BpeTokenizer::kSpecialCount + static_cast<TokenId>(b);
}

constexpr std::uint64_t pair_key(TokenId left, TokenId right) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(left)) << 32) |
         static_cast<std::uint32_t>(right);
}

// Token ids are non-negative, so no pair's key has its top bit set.
constexpr std::uint64_t kNoPair = ~std::uint64_t{0};

// Home slot of `key` in a table of `slots` (a power of two): Fibonacci
// hashing, the product's top bits.
std::size_t slot_of(std::uint64_t key, std::size_t slots) {
  const int bits = std::countr_zero(slots);
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> (64 - bits));
}

}  // namespace

std::vector<std::string_view> pretokenize(std::string_view text) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < text.size()) {
    char c = text[i];
    if (c == '\n' || c == '\t') {
      out.push_back(text.substr(i, 1));
      ++i;
      continue;
    }
    std::size_t start = i;
    while (i < text.size() && text[i] == ' ') ++i;
    while (i < text.size() && text[i] != ' ' && text[i] != '\n' &&
           text[i] != '\t')
      ++i;
    out.push_back(text.substr(start, i - start));
  }
  return out;
}

BpeTokenizer BpeTokenizer::train(std::string_view corpus,
                                 std::size_t vocab_size) {
  BpeTokenizer tok;
  // Base vocabulary: specials then bytes.
  tok.vocab_.resize(kSpecialCount);
  for (int b = 0; b < 256; ++b)
    tok.vocab_.push_back(std::string(1, static_cast<char>(b)));
  assert(vocab_size >= tok.vocab_.size());

  // Unique pre-tokens with counts.
  std::unordered_map<std::string, std::int64_t> word_counts;
  for (std::string_view w : pretokenize(corpus)) word_counts[std::string(w)]++;

  struct Word {
    std::vector<TokenId> ids;
    std::int64_t count;
  };
  std::vector<Word> words;
  words.reserve(word_counts.size());
  for (const auto& [text, count] : word_counts) {
    Word w;
    w.count = count;
    w.ids.reserve(text.size());
    for (unsigned char c : text) w.ids.push_back(byte_token(c));
    words.push_back(std::move(w));
  }
  // Deterministic ordering regardless of hash-map iteration order.
  std::sort(words.begin(), words.end(), [](const Word& a, const Word& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.ids < b.ids;
  });

  while (tok.vocab_.size() < vocab_size) {
    // Count adjacent pairs.
    std::unordered_map<std::uint64_t, std::int64_t> pair_counts;
    for (const Word& w : words) {
      for (std::size_t i = 0; i + 1 < w.ids.size(); ++i)
        pair_counts[pair_key(w.ids[i], w.ids[i + 1])] += w.count;
    }
    // Best pair: highest count, ties broken by smallest key for determinism.
    std::uint64_t best_key = 0;
    std::int64_t best_count = 1;  // require count >= 2
    for (const auto& [key, count] : pair_counts) {
      if (count > best_count || (count == best_count && key < best_key)) {
        best_key = key;
        best_count = count;
      }
    }
    if (best_count < 2) break;

    TokenId left = static_cast<TokenId>(best_key >> 32);
    TokenId right = static_cast<TokenId>(best_key & 0xFFFFFFFF);
    TokenId result = static_cast<TokenId>(tok.vocab_.size());
    tok.vocab_.push_back(tok.vocab_[static_cast<std::size_t>(left)] +
                         tok.vocab_[static_cast<std::size_t>(right)]);
    tok.merges_.push_back({left, right, result});

    // Apply the merge in place.
    for (Word& w : words) {
      std::size_t write = 0;
      for (std::size_t read = 0; read < w.ids.size(); ++read) {
        if (read + 1 < w.ids.size() && w.ids[read] == left &&
            w.ids[read + 1] == right) {
          w.ids[write++] = result;
          ++read;
        } else {
          w.ids[write++] = w.ids[read];
        }
      }
      w.ids.resize(write);
    }
  }

  tok.index_merges();
  return tok;
}

void BpeTokenizer::index_merges() {
  std::size_t slots = 16;
  while (slots < 2 * merges_.size()) slots *= 2;
  merge_rank_.assign(slots, RankSlot{kNoPair, 0});
  for (std::size_t r = 0; r < merges_.size(); ++r) {
    const std::uint64_t key = pair_key(merges_[r].left, merges_[r].right);
    std::size_t i = slot_of(key, slots);
    while (merge_rank_[i].key != kNoPair && merge_rank_[i].key != key)
      i = (i + 1) & (slots - 1);
    // A repeated pair keeps the slot its first (lowest) rank took.
    if (merge_rank_[i].key == kNoPair) merge_rank_[i] = {key, r};
  }
}

std::size_t BpeTokenizer::rank_of(TokenId left, TokenId right) const {
  const std::uint64_t key = pair_key(left, right);
  const std::size_t mask = merge_rank_.size() - 1;
  for (std::size_t i = slot_of(key, merge_rank_.size());;
       i = (i + 1) & mask) {
    if (merge_rank_[i].key == key) return merge_rank_[i].rank;
    if (merge_rank_[i].key == kNoPair) return static_cast<std::size_t>(-1);
  }
}

std::vector<TokenId> BpeTokenizer::encode_pretoken(
    std::string_view chunk) const {
  std::vector<TokenId> ids;
  ids.reserve(chunk.size());
  for (unsigned char c : chunk) ids.push_back(byte_token(c));
  // Repeatedly apply the lowest-rank merge present.
  for (;;) {
    std::size_t best_rank = static_cast<std::size_t>(-1);
    std::size_t best_pos = 0;
    for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
      std::size_t rank = rank_of(ids[i], ids[i + 1]);
      if (rank < best_rank) {
        best_rank = rank;
        best_pos = i;
      }
    }
    if (best_rank == static_cast<std::size_t>(-1)) break;
    ids[best_pos] = merges_[best_rank].result;
    ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(best_pos) + 1);
  }
  return ids;
}

std::vector<TokenId> BpeTokenizer::encode(std::string_view text) const {
  std::vector<TokenId> out;
  out.reserve(text.size() / 3);
  for (std::string_view chunk : pretokenize(text)) {
    std::vector<TokenId> ids = encode_pretoken(chunk);
    out.insert(out.end(), ids.begin(), ids.end());
  }
  return out;
}

std::string BpeTokenizer::decode(std::span<const TokenId> ids) const {
  std::string out;
  for (TokenId id : ids) {
    if (id < kSpecialCount || static_cast<std::size_t>(id) >= vocab_.size())
      continue;
    out += vocab_[static_cast<std::size_t>(id)];
  }
  return out;
}

std::string BpeTokenizer::token_text(TokenId id) const {
  if (id == kPad) return "<|pad|>";
  if (id == kEndOfText) return "<|eot|>";
  if (id < 0 || static_cast<std::size_t>(id) >= vocab_.size()) return "<|?|>";
  return vocab_[static_cast<std::size_t>(id)];
}

std::string BpeTokenizer::serialize() const {
  std::string out;
  util::put_u32(out, 0x42504531);  // "BPE1"
  util::put_u64(out, merges_.size());
  for (const Merge& m : merges_) {
    util::put_u32(out, static_cast<std::uint32_t>(m.left));
    util::put_u32(out, static_cast<std::uint32_t>(m.right));
  }
  return out;
}

std::optional<BpeTokenizer> BpeTokenizer::deserialize(std::string_view data) {
  util::ByteReader reader(data);
  if (reader.get_u32() != 0x42504531) return std::nullopt;
  std::uint64_t merge_count = reader.get_u64();

  BpeTokenizer tok;
  tok.vocab_.resize(kSpecialCount);
  for (int b = 0; b < 256; ++b)
    tok.vocab_.push_back(std::string(1, static_cast<char>(b)));
  for (std::uint64_t i = 0; i < merge_count; ++i) {
    TokenId left = static_cast<TokenId>(reader.get_u32());
    TokenId right = static_cast<TokenId>(reader.get_u32());
    if (!reader.ok()) return std::nullopt;
    if (left < 0 || right < 0 ||
        static_cast<std::size_t>(left) >= tok.vocab_.size() ||
        static_cast<std::size_t>(right) >= tok.vocab_.size())
      return std::nullopt;
    TokenId result = static_cast<TokenId>(tok.vocab_.size());
    tok.vocab_.push_back(tok.vocab_[static_cast<std::size_t>(left)] +
                         tok.vocab_[static_cast<std::size_t>(right)]);
    tok.merges_.push_back({left, right, result});
  }
  if (!reader.ok() || !reader.at_end()) return std::nullopt;
  tok.index_merges();
  return tok;
}

}  // namespace wisdom::text
