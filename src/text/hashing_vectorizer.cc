#include "text/hashing_vectorizer.h"

#include <cmath>
#include <set>
#include <string>

#include "common/hash.h"
#include "text/tokenizer.h"

namespace saga::text {

HashingVectorizer::HashingVectorizer() : HashingVectorizer(Options()) {}

HashingVectorizer::HashingVectorizer(Options options) : options_(options) {}

void HashingVectorizer::FitDf(const std::vector<std::string_view>& docs) {
  for (std::string_view doc : docs) {
    std::set<std::string> seen;
    for (const Token& t : Tokenize(doc)) seen.insert(t.text);
    for (const auto& tok : seen) ++df_[tok];
    ++num_docs_;
  }
}

void HashingVectorizer::FitDf(const std::vector<std::string>& docs) {
  std::vector<std::string_view> views(docs.begin(), docs.end());
  FitDf(views);
}

double HashingVectorizer::IdfWeight(const std::string& token) const {
  if (!options_.use_idf || num_docs_ == 0) return 1.0;
  auto it = df_.find(token);
  const double df = it == df_.end() ? 0.0 : static_cast<double>(it->second);
  return std::log((1.0 + num_docs_) / (1.0 + df)) + 0.1;
}

void HashingVectorizer::AddHashedWeight(uint64_t h, double weight,
                                        std::vector<float>* vec) const {
  const uint32_t dim = static_cast<uint32_t>(options_.dim);
  const uint32_t idx = static_cast<uint32_t>(h % dim);
  const double sign = (Mix64(h) & 1) ? 1.0 : -1.0;
  (*vec)[idx] += static_cast<float>(sign * weight);
}

std::vector<float> HashingVectorizer::Embed(std::string_view text) const {
  return EmbedPieces({&text, 1});
}

std::vector<float> HashingVectorizer::EmbedPieces(
    std::span<const std::string_view> pieces) const {
  std::vector<float> vec(options_.dim, 0.0f);
  // One pass with Tokenize's word rule. Each byte of a token is
  // lowercased and fed to FNV-1a as it is read, for the token's hash and
  // for its bigram's, which streams on from the previous token's hash
  // (Hash64(prev + "_" + token)). Features are added in Tokenize order
  // (u0, b01, u1, b12, ...), so every float sums exactly as an embed
  // over Tokenize's output would (text_test keeps one as its oracle).
  // The token's text is built only for the idf lookup.
  const bool idf = options_.use_idf && num_docs_ > 0;
  std::string token;
  uint64_t prev_hash = 0;
  bool have_prev = false;
  for (std::string_view piece : pieces) {
    size_t i = 0;
    while (i < piece.size()) {
      while (i < piece.size() && !IsWordChar(piece[i])) ++i;
      if (i >= piece.size()) break;
      const bool bigram = options_.use_bigrams && have_prev;
      uint64_t h = Hash64({});
      uint64_t joined = bigram ? Hash64("_", prev_hash) : 0;
      token.clear();
      for (; i < piece.size() && IsWordChar(piece[i]); ++i) {
        const char c = AsciiToLower(piece[i]);
        h = Hash64({&c, 1}, h);
        if (bigram) joined = Hash64({&c, 1}, joined);
        if (idf) token.push_back(c);
      }
      if (bigram) AddHashedWeight(joined, 0.5, &vec);
      AddHashedWeight(h, IdfWeight(token), &vec);
      prev_hash = h;
      have_prev = true;
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

double HashingVectorizer::Cosine(const std::vector<float>& a,
                                 const std::vector<float>& b) {
  double dot = 0.0;
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) dot += static_cast<double>(a[i]) * b[i];
  return dot;
}

}  // namespace saga::text
