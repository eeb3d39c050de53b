#ifndef SAGA_TEXT_TOKENIZER_H_
#define SAGA_TEXT_TOKENIZER_H_

#include <cctype>
#include <string>
#include <string_view>
#include <vector>

namespace saga::text {

/// The word-character rule of Tokenize: ASCII alphanumerics and the
/// apostrophe ("don't" is one token).
inline bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '\'';
}

/// One token with its byte span in the original text. Spans let the
/// mention detector map token matches back to character offsets.
struct Token {
  std::string text;        // lowercased
  size_t begin = 0;        // byte offset of first char
  size_t end = 0;          // byte offset one past last char
  bool capitalized = false;  // original form started with an uppercase letter
};

/// ASCII word tokenizer: splits on non-alphanumeric characters, records
/// spans and capitalization. Multilingual tokenization is out of scope
/// (the paper's service is multilingual; see DESIGN.md substitutions).
std::vector<Token> Tokenize(std::string_view text);

/// Splits text into sentence strings on [.!?] followed by whitespace.
std::vector<std::string> SplitSentences(std::string_view text);

/// Lowercased whitespace-joined token string ("Michael  JORDAN!" ->
/// "michael jordan").
std::string NormalizedTokenString(std::string_view text);

}  // namespace saga::text

#endif  // SAGA_TEXT_TOKENIZER_H_
