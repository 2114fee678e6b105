// Trainable byte-level BPE tokenizer.
//
// Mirrors the role of the CodeGen/GPT-2 tokenizer in the paper's pipeline:
// text becomes subword ids, files are packed into fixed context windows and
// separated by a special end-of-text token ("we used a special separator
// token to separate the files"). The base vocabulary is all 256 bytes plus
// the specials, so any input round-trips exactly; merges are learned from a
// training corpus with the classic greedy highest-frequency-pair rule.
//
// Pre-tokenization is whitespace-aware in a YAML-friendly way: newlines are
// standalone pre-tokens and leading spaces attach to the following word, so
// indentation levels ("    state:") become single learned tokens — the same
// property that makes byte-level BPE workable for YAML in the real system.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace wisdom::text {

using TokenId = std::int32_t;

class BpeTokenizer {
 public:
  // Special token ids (fixed, precede the 256 byte tokens).
  static constexpr TokenId kPad = 0;
  static constexpr TokenId kEndOfText = 1;  // also the file separator
  static constexpr TokenId kSpecialCount = 2;

  // Learns `vocab_size - 258` merges from the corpus. vocab_size must be at
  // least 258 (specials + bytes).
  static BpeTokenizer train(std::string_view corpus, std::size_t vocab_size);

  std::vector<TokenId> encode(std::string_view text) const;
  // Decodes ids back to bytes; special tokens decode to nothing.
  std::string decode(std::span<const TokenId> ids) const;

  std::size_t vocab_size() const { return vocab_.size(); }
  std::size_t merge_count() const { return merges_.size(); }
  // Byte string for a token id (specials render as "<|pad|>"/"<|eot|>").
  std::string token_text(TokenId id) const;

  // Serialization for checkpointing alongside model weights.
  std::string serialize() const;
  static std::optional<BpeTokenizer> deserialize(std::string_view data);

 private:
  BpeTokenizer() = default;

  struct Merge {
    TokenId left;
    TokenId right;
    TokenId result;
  };

  std::vector<TokenId> encode_pretoken(std::string_view chunk) const;
  // Builds merge_rank_ from merges_ (train() and deserialize() share it).
  void index_merges();

  // vocab_[id] = byte string of the token ("" for specials).
  std::vector<std::string> vocab_;
  std::vector<Merge> merges_;
  // Rank lookup, O(1) per adjacent pair: an open-addressing table of
  // (key = (left << 32) | right, lowest merge index with that pair),
  // power-of-two sized, linear probing, kNoPair marking empty slots.
  struct RankSlot {
    std::uint64_t key;
    std::size_t rank;
  };
  std::vector<RankSlot> merge_rank_;

  std::size_t rank_of(TokenId left, TokenId right) const;
};

// Splits text into BPE pre-tokens: "\n" alone, or a run of spaces glued to
// the following non-space run. Exposed for testing.
std::vector<std::string_view> pretokenize(std::string_view text);

}  // namespace wisdom::text
