#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "data/ansible_gen.hpp"
#include "text/bpe.hpp"
#include "text/ngram.hpp"
#include "text/tokenize.hpp"
#include "util/rng.hpp"

namespace wt = wisdom::text;

namespace {
const std::string kYamlCorpus =
    "- name: Install nginx\n"
    "  ansible.builtin.apt:\n"
    "    name: nginx\n"
    "    state: present\n"
    "- name: Start nginx\n"
    "  ansible.builtin.service:\n"
    "    name: nginx\n"
    "    state: started\n"
    "- name: Install postgresql\n"
    "  ansible.builtin.apt:\n"
    "    name: postgresql\n"
    "    state: present\n";

// The tokenizer's merges, in rank order, read back from its serialized
// form: u32 magic, u64 count, then (left, right) u32 pairs.
std::vector<std::pair<wt::TokenId, wt::TokenId>> merges_of(
    const wt::BpeTokenizer& tok) {
  const std::string blob = tok.serialize();
  auto u32_at = [&](std::size_t at) {
    std::uint32_t v = 0;
    for (int b = 3; b >= 0; --b)
      v = (v << 8) | static_cast<unsigned char>(blob[at + b]);
    return v;
  };
  std::vector<std::pair<wt::TokenId, wt::TokenId>> merges;
  for (std::size_t at = 12; at + 8 <= blob.size(); at += 8)
    merges.emplace_back(static_cast<wt::TokenId>(u32_at(at)),
                        static_cast<wt::TokenId>(u32_at(at + 4)));
  return merges;
}

// Plain BPE: per pre-token, start from bytes and apply the lowest-rank
// merge present (its leftmost occurrence) until none applies. A pair's
// rank is its first index in the merge list; merge r yields token
// 258 + r.
std::vector<wt::TokenId> reference_encode(
    const std::vector<std::pair<wt::TokenId, wt::TokenId>>& merges,
    std::string_view text) {
  std::vector<wt::TokenId> out;
  for (std::string_view chunk : wt::pretokenize(text)) {
    std::vector<wt::TokenId> ids;
    for (unsigned char c : chunk)
      ids.push_back(wt::BpeTokenizer::kSpecialCount + c);
    for (;;) {
      std::size_t best_rank = merges.size(), best_pos = 0;
      for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
        for (std::size_t r = 0; r < best_rank; ++r) {
          if (merges[r] == std::make_pair(ids[i], ids[i + 1])) {
            best_rank = r;
            best_pos = i;
            break;
          }
        }
      }
      if (best_rank == merges.size()) break;
      ids[best_pos] = static_cast<wt::TokenId>(
          wt::BpeTokenizer::kSpecialCount + 256 + best_rank);
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(best_pos) + 1);
    }
    out.insert(out.end(), ids.begin(), ids.end());
  }
  return out;
}

}  // namespace

// --- pretokenize -----------------------------------------------------------

TEST(Pretokenize, NewlinesStandalone) {
  auto toks = wt::pretokenize("a\nb");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[1], "\n");
}

TEST(Pretokenize, IndentGluesToWord) {
  auto toks = wt::pretokenize("    state: present");
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0], "    state:");
  EXPECT_EQ(toks[1], " present");
}

TEST(Pretokenize, ConcatenationRecoversInput) {
  std::string input = "  - name: X\n    apt:\n      state: present\n";
  std::string glued;
  for (auto t : wt::pretokenize(input)) glued += t;
  EXPECT_EQ(glued, input);
}

// --- BPE --------------------------------------------------------------------

TEST(Bpe, RoundTripOnTrainingDomain) {
  auto tok = wt::BpeTokenizer::train(kYamlCorpus, 300);
  auto ids = tok.encode(kYamlCorpus);
  EXPECT_EQ(tok.decode(ids), kYamlCorpus);
}

TEST(Bpe, RoundTripOnUnseenText) {
  auto tok = wt::BpeTokenizer::train(kYamlCorpus, 300);
  std::string unseen = "completely: different\n  content: [1, 2]\n";
  EXPECT_EQ(tok.decode(tok.encode(unseen)), unseen);
}

TEST(Bpe, RoundTripArbitraryBytes) {
  auto tok = wt::BpeTokenizer::train(kYamlCorpus, 280);
  wisdom::util::Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    std::string bytes;
    for (int i = 0; i < 64; ++i)
      bytes += static_cast<char>(rng.uniform(256));
    EXPECT_EQ(tok.decode(tok.encode(bytes)), bytes);
  }
}

TEST(Bpe, MergesCompress) {
  auto tok = wt::BpeTokenizer::train(kYamlCorpus, 400);
  auto ids = tok.encode(kYamlCorpus);
  // With learned merges the sequence must be much shorter than raw bytes.
  EXPECT_LT(ids.size(), kYamlCorpus.size() / 2);
  EXPECT_GT(tok.merge_count(), 20u);
}

TEST(Bpe, LargerVocabNeverLongerEncoding) {
  auto small = wt::BpeTokenizer::train(kYamlCorpus, 280);
  auto large = wt::BpeTokenizer::train(kYamlCorpus, 420);
  EXPECT_LE(large.encode(kYamlCorpus).size(),
            small.encode(kYamlCorpus).size());
}

TEST(Bpe, DeterministicTraining) {
  auto a = wt::BpeTokenizer::train(kYamlCorpus, 320);
  auto b = wt::BpeTokenizer::train(kYamlCorpus, 320);
  EXPECT_EQ(a.serialize(), b.serialize());
  EXPECT_EQ(a.encode("state: present"), b.encode("state: present"));
}

TEST(Bpe, SpecialTokensDecodeToNothing) {
  auto tok = wt::BpeTokenizer::train(kYamlCorpus, 280);
  std::vector<wt::TokenId> ids = {wt::BpeTokenizer::kEndOfText,
                                  wt::BpeTokenizer::kPad};
  EXPECT_EQ(tok.decode(ids), "");
  EXPECT_EQ(tok.token_text(wt::BpeTokenizer::kEndOfText), "<|eot|>");
  EXPECT_EQ(tok.token_text(wt::BpeTokenizer::kPad), "<|pad|>");
}

TEST(Bpe, SerializationRoundTrip) {
  auto tok = wt::BpeTokenizer::train(kYamlCorpus, 350);
  auto restored = wt::BpeTokenizer::deserialize(tok.serialize());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->vocab_size(), tok.vocab_size());
  EXPECT_EQ(restored->encode(kYamlCorpus), tok.encode(kYamlCorpus));
}

TEST(Bpe, DeserializeRejectsGarbage) {
  EXPECT_FALSE(wt::BpeTokenizer::deserialize("not a tokenizer").has_value());
  auto tok = wt::BpeTokenizer::train(kYamlCorpus, 300);
  std::string data = tok.serialize();
  data.resize(data.size() / 2);
  EXPECT_FALSE(wt::BpeTokenizer::deserialize(data).has_value());
}

// Round trips hold for any segmentation, so this pins the segmentation
// itself: encode() must pick the same merges as plain lowest-rank-first
// BPE on generated Ansible text it was not trained on.
TEST(Bpe, EncodeMatchesLowestRankFirstReference) {
  wisdom::data::AnsibleGenerator train_gen(wisdom::util::Rng(5));
  std::string corpus;
  for (int i = 0; i < 20; ++i) corpus += train_gen.playbook_text(4);
  auto tok = wt::BpeTokenizer::train(corpus, 600);
  const auto merges = merges_of(tok);
  ASSERT_EQ(merges.size(), tok.merge_count());

  wisdom::data::AnsibleGenerator gen(wisdom::util::Rng(17));
  for (int i = 0; i < 40; ++i) {
    const std::string text = i % 2 ? gen.playbook_text(3)
                                   : gen.role_tasks_text(2);
    EXPECT_EQ(tok.encode(text), reference_encode(merges, text)) << text;
  }
}

// A serialized merge list may repeat a pair; its first (lowest) rank wins,
// so the later duplicate never applies.
TEST(Bpe, RepeatedMergeKeepsLowestRank) {
  auto tok = wt::BpeTokenizer::train(kYamlCorpus, 300);
  std::string blob = tok.serialize();
  const std::string first_pair = blob.substr(12, 8);
  // Append a copy of merge 0 and bump the count.
  blob += first_pair;
  blob[4] = static_cast<char>(static_cast<unsigned char>(blob[4]) + 1);
  auto repeated = wt::BpeTokenizer::deserialize(blob);
  ASSERT_TRUE(repeated.has_value());
  EXPECT_EQ(repeated->merge_count(), tok.merge_count() + 1);
  EXPECT_EQ(repeated->encode(kYamlCorpus), tok.encode(kYamlCorpus));
  EXPECT_EQ(repeated->encode(kYamlCorpus),
            reference_encode(merges_of(*repeated), kYamlCorpus));
}

TEST(Bpe, VocabSizeHonored) {
  auto tok = wt::BpeTokenizer::train(kYamlCorpus, 300);
  EXPECT_LE(tok.vocab_size(), 300u);
  EXPECT_GE(tok.vocab_size(), 258u);
}

// --- bleu tokenization ----------------------------------------------------------

TEST(BleuTokenize, SplitsIdentifiersAndPunct) {
  auto toks = wt::bleu_tokenize("name: openssh-server");
  std::vector<std::string> expected = {"name", ":", "openssh", "-", "server"};
  EXPECT_EQ(toks, expected);
}

TEST(BleuTokenize, NewlineMarkers) {
  auto toks = wt::bleu_tokenize("a\nb");
  std::vector<std::string> expected = {"a", "<nl>", "b"};
  EXPECT_EQ(toks, expected);
}

TEST(BleuTokenize, KeepsUnderscoreInIdentifier) {
  auto toks = wt::bleu_tokenize("gather_facts: false");
  EXPECT_EQ(toks[0], "gather_facts");
}

// --- ngrams --------------------------------------------------------------------

TEST(Ngram, CountsAndClipping) {
  std::vector<std::string> a = {"x", "y", "x", "y"};
  auto unigrams = wt::count_ngrams(a, 1);
  EXPECT_EQ(unigrams["x"], 2);
  auto bigrams = wt::count_ngrams(a, 2);
  EXPECT_EQ(bigrams.size(), 2u);  // distinct: xy (count 2), yx (count 1)
  EXPECT_EQ(bigrams["x\x1fy"], 2);
  std::vector<std::string> ref = {"x", "y"};
  auto ref_uni = wt::count_ngrams(ref, 1);
  // candidate has x twice but reference only once: clipped to 1 (+1 for y).
  EXPECT_EQ(wt::clipped_matches(unigrams, ref_uni), 2);
}

TEST(Ngram, OrderLargerThanSequence) {
  std::vector<std::string> a = {"x"};
  EXPECT_TRUE(wt::count_ngrams(a, 2).empty());
  EXPECT_TRUE(wt::count_ngrams({}, 1).empty());
}
