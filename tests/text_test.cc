#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <unordered_map>

#include "common/hash.h"
#include "common/rng.h"
#include "text/aho_corasick.h"
#include "text/hashing_vectorizer.h"
#include "text/similarity.h"
#include "text/tokenizer.h"

namespace saga::text {
namespace {

// ---------- Tokenizer ----------

// The ASCII helpers stand in for <cctype> in the C locale; nothing in
// the program calls setlocale.
TEST(TokenizerTest, AsciiHelpersMatchCctypeForEveryByte) {
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    EXPECT_EQ(IsAsciiAlnum(c), std::isalnum(b) != 0) << b;
    EXPECT_EQ(IsAsciiUpper(c), std::isupper(b) != 0) << b;
    EXPECT_EQ(AsciiToLower(c), static_cast<char>(std::tolower(b))) << b;
  }
}

TEST(TokenizerTest, BasicTokensWithSpans) {
  const std::string s = "Michael Jordan, stats!";
  auto tokens = Tokenize(s);
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].text, "michael");
  EXPECT_TRUE(tokens[0].capitalized);
  EXPECT_EQ(s.substr(tokens[0].begin, tokens[0].end - tokens[0].begin),
            "Michael");
  EXPECT_EQ(tokens[1].text, "jordan");
  EXPECT_EQ(tokens[2].text, "stats");
  EXPECT_FALSE(tokens[2].capitalized);
}

TEST(TokenizerTest, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("..., --- !!").empty());
}

TEST(TokenizerTest, ApostrophesStayInTokens) {
  auto tokens = Tokenize("O'Brien's book");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].text, "o'brien's");
}

TEST(TokenizerTest, SplitSentences) {
  auto sentences =
      SplitSentences("First one. Second here! Third? trailing bit");
  ASSERT_EQ(sentences.size(), 4u);
  EXPECT_EQ(sentences[0], "First one.");
  EXPECT_EQ(sentences[3], " trailing bit");
}

TEST(TokenizerTest, AbbreviationDotMidWordIsNotBreak) {
  // "3.5" has no whitespace after the dot -> one sentence.
  auto sentences = SplitSentences("Version 3.5 shipped.");
  EXPECT_EQ(sentences.size(), 1u);
}

TEST(TokenizerTest, NormalizedTokenString) {
  EXPECT_EQ(NormalizedTokenString("  Michael   JORDAN!"), "michael jordan");
  EXPECT_EQ(NormalizedTokenString(""), "");
}

// ---------- Similarity ----------

TEST(SimilarityTest, EditDistanceKnownValues) {
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("", "abc"), 3u);
  EXPECT_EQ(EditDistance("same", "same"), 0u);
}

TEST(SimilarityTest, EditSimilarityNormalized) {
  EXPECT_DOUBLE_EQ(EditSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("ab", "ab"), 1.0);
  EXPECT_NEAR(EditSimilarity("abcd", "abce"), 0.75, 1e-9);
}

TEST(SimilarityTest, JaroWinklerProperties) {
  EXPECT_DOUBLE_EQ(JaroWinkler("tim", "tim"), 1.0);
  EXPECT_DOUBLE_EQ(JaroWinkler("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroWinkler("a", ""), 0.0);
  // Prefix boost: shared prefixes score higher.
  EXPECT_GT(JaroWinkler("timothy", "timofey"),
            JaroWinkler("timothy", "yhtomit"));
  EXPECT_GT(JaroWinkler("martha", "marhta"), 0.9);  // classic example
  // Symmetry.
  EXPECT_NEAR(JaroWinkler("dwayne", "duane"), JaroWinkler("duane", "dwayne"),
              1e-12);
}

TEST(SimilarityTest, TokenJaccard) {
  EXPECT_DOUBLE_EQ(TokenJaccard("a b c", "a b c"), 1.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("a b", "c d"), 0.0);
  EXPECT_NEAR(TokenJaccard("a b c", "b c d"), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(TokenJaccard("", ""), 1.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("Tim Chen", "tim CHEN"), 1.0);
}

// ---------- HashingVectorizer ----------

TEST(VectorizerTest, EmbeddingIsNormalizedAndDeterministic) {
  HashingVectorizer vec;
  auto a = vec.Embed("knowledge graphs at scale");
  auto b = vec.Embed("knowledge graphs at scale");
  EXPECT_EQ(a, b);
  double norm = 0.0;
  for (float v : a) norm += static_cast<double>(v) * v;
  EXPECT_NEAR(norm, 1.0, 1e-5);
}

TEST(VectorizerTest, EmptyTextIsZeroVector) {
  HashingVectorizer vec;
  auto z = vec.Embed("");
  for (float v : z) EXPECT_EQ(v, 0.0f);
}

TEST(VectorizerTest, SimilarTextsScoreHigherThanUnrelated) {
  HashingVectorizer vec;
  auto basketball1 = vec.Embed("basketball player team championship game");
  auto basketball2 = vec.Embed("the basketball team won the game");
  auto cooking = vec.Embed("recipe oven butter flour sugar");
  EXPECT_GT(HashingVectorizer::Cosine(basketball1, basketball2),
            HashingVectorizer::Cosine(basketball1, cooking));
}

TEST(VectorizerTest, SelfSimilarityIsMaximal) {
  HashingVectorizer vec;
  auto a = vec.Embed("some unique text here");
  EXPECT_NEAR(HashingVectorizer::Cosine(a, a), 1.0, 1e-5);
}

TEST(VectorizerTest, IdfDownweightsCommonTokens) {
  HashingVectorizer::Options opts;
  opts.use_bigrams = false;
  HashingVectorizer vec(opts);
  std::vector<std::string> corpus;
  for (int i = 0; i < 50; ++i) {
    corpus.push_back("the common filler text number " + std::to_string(i));
  }
  corpus.push_back("zebra quasar");
  vec.FitDf(corpus);
  // Document sharing only the ubiquitous token "the" should be less
  // similar than one sharing the rare token "zebra".
  auto query = vec.Embed("zebra the");
  auto rare_doc = vec.Embed("zebra stripes");
  auto common_doc = vec.Embed("the filler");
  EXPECT_GT(HashingVectorizer::Cosine(query, rare_doc),
            HashingVectorizer::Cosine(query, common_doc));
}

TEST(VectorizerTest, DimensionIsConfigurable) {
  HashingVectorizer::Options opts;
  opts.dim = 64;
  HashingVectorizer vec(opts);
  EXPECT_EQ(vec.Embed("x").size(), 64u);
  EXPECT_EQ(vec.dim(), 64);
}

// Differential test of the one-pass Embed against the Tokenize-based
// Embed it replaced, kept here verbatim as the oracle: every vector
// must match bit for bit.
class TokenizeEmbedOracle {
 public:
  explicit TokenizeEmbedOracle(HashingVectorizer::Options options)
      : options_(options) {}

  void FitDf(const std::vector<std::string>& docs) {
    for (std::string_view doc : docs) {
      std::set<std::string> seen;
      for (const Token& t : Tokenize(doc)) seen.insert(t.text);
      for (const auto& tok : seen) ++df_[tok];
      ++num_docs_;
    }
  }

  std::vector<float> Embed(std::string_view text) const {
    std::vector<float> vec(options_.dim, 0.0f);
    const std::vector<Token> tokens = Tokenize(text);
    for (size_t i = 0; i < tokens.size(); ++i) {
      AddTokenWeight(tokens[i].text, IdfWeight(tokens[i].text), &vec);
      if (options_.use_bigrams && i + 1 < tokens.size()) {
        const std::string bigram = tokens[i].text + "_" + tokens[i + 1].text;
        AddTokenWeight(bigram, 0.5, &vec);
      }
    }
    double norm_sq = 0.0;
    for (float v : vec) norm_sq += static_cast<double>(v) * v;
    if (norm_sq > 0.0) {
      const float inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
      for (float& v : vec) v *= inv;
    }
    return vec;
  }

 private:
  double IdfWeight(const std::string& token) const {
    if (!options_.use_idf || num_docs_ == 0) return 1.0;
    auto it = df_.find(token);
    const double df = it == df_.end() ? 0.0 : static_cast<double>(it->second);
    return std::log((1.0 + num_docs_) / (1.0 + df)) + 0.1;
  }

  void AddTokenWeight(std::string_view token, double weight,
                      std::vector<float>* vec) const {
    const uint64_t h = Hash64(token);
    const uint32_t dim = static_cast<uint32_t>(options_.dim);
    const uint32_t idx = static_cast<uint32_t>(h % dim);
    const double sign = (Mix64(h) & 1) ? 1.0 : -1.0;
    (*vec)[idx] += static_cast<float>(sign * weight);
  }

  HashingVectorizer::Options options_;
  std::unordered_map<std::string, uint32_t> df_;
  uint32_t num_docs_ = 0;
};

/// Seeded byte strings, mostly word characters (either case, digits),
/// with apostrophes, punctuation, whitespace and bytes >= 0x80 mixed in,
/// plus the empty string and single tokens.
std::vector<std::string> EmbedDifferentialInputs() {
  static const std::string kPieces[] = {
      "abcdefghijklmnopqrstuvwxyz", "ABCDEFGHIJKLMNOPQRSTUVWXYZ",
      "0123456789", "'''", " \t\n", ".,;:!?-_()\"/",
      "\x80\xc3\xa9\xff\xe2\x80\x99"};
  std::vector<std::string> inputs = {"",    "a",   "A",     "'",      "x'y",
                                     "7",   "_",   "ABC",   "don't",  "\xc3\xa9",
                                     "a b", "A_B", "a'' b", " x ",    "Q."};
  Rng rng(20231018);
  for (int i = 0; i < 400; ++i) {
    std::string s;
    const size_t len = rng.Uniform(300);
    for (size_t j = 0; j < len; ++j) {
      const std::string& piece = rng.Bernoulli(0.75)
                                     ? kPieces[rng.Uniform(3)]
                                     : kPieces[3 + rng.Uniform(4)];
      s.push_back(piece[rng.Uniform(piece.size())]);
    }
    inputs.push_back(std::move(s));
  }
  return inputs;
}

TEST(VectorizerTest, OnePassEmbedMatchesTokenizeOracleBitForBit) {
  const std::vector<std::string> inputs = EmbedDifferentialInputs();
  const std::vector<std::string> fit_docs(inputs.begin() + 100,
                                          inputs.begin() + 200);
  for (int dim : {1, 7, 64, 256}) {
    for (bool bigrams : {false, true}) {
      for (bool fitted : {false, true}) {
        HashingVectorizer::Options opts;
        opts.dim = dim;
        opts.use_bigrams = bigrams;
        HashingVectorizer vec(opts);
        TokenizeEmbedOracle oracle(opts);
        if (fitted) {
          vec.FitDf(fit_docs);
          oracle.FitDf(fit_docs);
        }
        for (size_t i = 0; i < inputs.size(); ++i) {
          const std::vector<float> got = vec.Embed(inputs[i]);
          const std::vector<float> want = oracle.Embed(inputs[i]);
          ASSERT_EQ(got.size(), want.size());
          ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                got.size() * sizeof(float)),
                    0)
              << "dim=" << dim << " bigrams=" << bigrams
              << " fitted=" << fitted << " input #" << i;
        }
      }
    }
  }
}

// Each input split at random points (empty pieces included) and
// embedded as pieces must equal Embed of the pieces joined by single
// spaces, bit for bit.
TEST(VectorizerTest, EmbedPiecesMatchesEmbedOfSpaceJoinedText) {
  const std::vector<std::string> inputs = EmbedDifferentialInputs();
  const std::vector<std::string> fit_docs(inputs.begin() + 100,
                                          inputs.begin() + 200);
  for (int dim : {1, 7, 64, 256}) {
    for (bool bigrams : {false, true}) {
      for (bool fitted : {false, true}) {
        HashingVectorizer::Options opts;
        opts.dim = dim;
        opts.use_bigrams = bigrams;
        HashingVectorizer vec(opts);
        if (fitted) vec.FitDf(fit_docs);
        Rng rng(20261020 + dim);
        for (size_t i = 0; i < inputs.size(); ++i) {
          const std::string_view input = inputs[i];
          // 0-5 cuts; repeated cuts and cuts at either end make empty
          // pieces.
          std::vector<size_t> cuts = {0, input.size()};
          for (uint64_t c = rng.Uniform(6); c > 0; --c) {
            cuts.push_back(rng.Uniform(input.size() + 1));
          }
          std::sort(cuts.begin(), cuts.end());
          std::vector<std::string_view> pieces;
          std::string joined;
          for (size_t j = 0; j + 1 < cuts.size(); ++j) {
            pieces.push_back(input.substr(cuts[j], cuts[j + 1] - cuts[j]));
            if (j > 0) joined += ' ';
            joined += pieces.back();
          }
          const std::vector<float> got = vec.EmbedPieces(pieces);
          const std::vector<float> want = vec.Embed(joined);
          ASSERT_EQ(got.size(), want.size());
          ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                got.size() * sizeof(float)),
                    0)
              << "dim=" << dim << " bigrams=" << bigrams
              << " fitted=" << fitted << " input #" << i << " in "
              << pieces.size() << " pieces";
        }
      }
    }
  }
  // No pieces at all is the empty text.
  HashingVectorizer vec;
  EXPECT_EQ(vec.EmbedPieces({}), vec.Embed(""));
}

// ---------- AhoCorasick ----------

TEST(AhoCorasickTest, FindsAllOccurrences) {
  AhoCorasick ac;
  const uint32_t he = ac.AddPattern("he");
  const uint32_t she = ac.AddPattern("she");
  const uint32_t hers = ac.AddPattern("hers");
  ac.Build();

  auto matches = ac.FindAll("ushers");
  // "ushers" contains "she"@1, "he"@2, "hers"@2.
  ASSERT_EQ(matches.size(), 3u);
  std::set<uint32_t> found;
  for (const auto& m : matches) {
    found.insert(m.pattern);
    EXPECT_EQ(std::string("ushers").substr(m.begin, m.end - m.begin),
              ac.pattern(m.pattern));
  }
  EXPECT_TRUE(found.count(he));
  EXPECT_TRUE(found.count(she));
  EXPECT_TRUE(found.count(hers));
}

TEST(AhoCorasickTest, NoMatchesInUnrelatedText) {
  AhoCorasick ac;
  ac.AddPattern("needle");
  ac.Build();
  EXPECT_TRUE(ac.FindAll("haystack without it").empty());
  EXPECT_TRUE(ac.FindAll("").empty());
}

TEST(AhoCorasickTest, OverlappingAndRepeated) {
  AhoCorasick ac;
  ac.AddPattern("aa");
  ac.Build();
  auto matches = ac.FindAll("aaaa");
  EXPECT_EQ(matches.size(), 3u);  // positions 0,1,2
}

TEST(AhoCorasickTest, ManyPatternsScanOnce) {
  AhoCorasick ac;
  std::vector<std::string> names;
  for (int i = 0; i < 500; ++i) {
    names.push_back("entity" + std::to_string(i));
    ac.AddPattern(names.back());
  }
  ac.Build();
  auto matches = ac.FindAll("we saw entity42 and entity499 and entity5");
  // entity42 also contains entity4; entity499 contains entity49 and
  // entity4; entity5 contains no sub-pattern of this set... check
  // expected superset semantics: at least the three exact names.
  std::set<std::string> surfaces;
  for (const auto& m : matches) surfaces.insert(ac.pattern(m.pattern));
  EXPECT_TRUE(surfaces.count("entity42"));
  EXPECT_TRUE(surfaces.count("entity499"));
  EXPECT_TRUE(surfaces.count("entity5"));
}

TEST(AhoCorasickTest, PatternIndexRoundTrip) {
  AhoCorasick ac;
  const uint32_t a = ac.AddPattern("alpha");
  const uint32_t b = ac.AddPattern("beta");
  EXPECT_EQ(ac.pattern(a), "alpha");
  EXPECT_EQ(ac.pattern(b), "beta");
  EXPECT_EQ(ac.num_patterns(), 2u);
}

}  // namespace
}  // namespace saga::text
