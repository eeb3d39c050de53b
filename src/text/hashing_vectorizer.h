#ifndef SAGA_TEXT_HASHING_VECTORIZER_H_
#define SAGA_TEXT_HASHING_VECTORIZER_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace saga::text {

/// Feature-hashing text embedder: each (lowercased) token and token
/// bigram hashes to a dimension with a sign hash, producing a dense
/// L2-normalized vector. Plays the role of the paper's learned text
/// encoders for contextual reranking: entity textual features (name,
/// description, facts) embed into the same space as query/document
/// context, and cosine similarity is meaningful because shared tokens
/// land in shared dimensions.
class HashingVectorizer {
 public:
  struct Options {
    int dim = 256;
    bool use_bigrams = true;
    /// Down-weight frequent tokens: weight = 1/log(2 + df) when a
    /// document-frequency table is supplied via FitDf.
    bool use_idf = true;
  };

  HashingVectorizer();
  explicit HashingVectorizer(Options options);

  /// Accumulates document frequencies from a corpus sample so Embed can
  /// idf-weight. Optional; without it all tokens weigh 1.
  void FitDf(const std::vector<std::string_view>& docs);
  void FitDf(const std::vector<std::string>& docs);

  /// Dense L2-normalized embedding of `text`.
  std::vector<float> Embed(std::string_view text) const;

  /// Embed of the pieces joined by single spaces, computed without
  /// joining them: EmbedPieces({a, b}) equals Embed(a + " " + b) bit for
  /// bit. A token never spans two pieces; a bigram may.
  std::vector<float> EmbedPieces(
      std::span<const std::string_view> pieces) const;

  /// Cosine similarity of two vectors from this vectorizer (assumes
  /// both are L2-normalized, so this is a dot product).
  static double Cosine(const std::vector<float>& a,
                       const std::vector<float>& b);

  int dim() const { return options_.dim; }

 private:
  /// Adds the signed `weight` at the dimension feature hash `h` picks.
  void AddHashedWeight(uint64_t h, double weight,
                       std::vector<float>* vec) const;
  double IdfWeight(const std::string& token) const;

  Options options_;
  std::unordered_map<std::string, uint32_t> df_;
  uint32_t num_docs_ = 0;
};

}  // namespace saga::text

#endif  // SAGA_TEXT_HASHING_VECTORIZER_H_
