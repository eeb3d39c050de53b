#include "text/tokenizer.h"

#include <cctype>

namespace saga::text {

std::vector<Token> Tokenize(std::string_view text) {
  std::vector<Token> tokens;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && !IsWordChar(text[i])) ++i;
    if (i >= text.size()) break;
    const size_t begin = i;
    while (i < text.size() && IsWordChar(text[i])) ++i;
    Token tok;
    tok.begin = begin;
    tok.end = i;
    tok.capitalized = IsAsciiUpper(text[begin]);
    tok.text.reserve(i - begin);
    for (size_t j = begin; j < i; ++j) {
      tok.text.push_back(AsciiToLower(text[j]));
    }
    tokens.push_back(std::move(tok));
  }
  return tokens;
}

std::vector<std::string> SplitSentences(std::string_view text) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const bool end_mark = (c == '.' || c == '!' || c == '?');
    const bool at_break =
        end_mark && (i + 1 >= text.size() ||
                     std::isspace(static_cast<unsigned char>(text[i + 1])));
    if (at_break) {
      const std::string_view sentence = text.substr(start, i + 1 - start);
      if (!sentence.empty()) out.emplace_back(sentence);
      start = i + 1;
    }
  }
  if (start < text.size()) {
    std::string tail(text.substr(start));
    // Keep only non-blank tails.
    bool blank = true;
    for (char c : tail) {
      if (!std::isspace(static_cast<unsigned char>(c))) {
        blank = false;
        break;
      }
    }
    if (!blank) out.push_back(std::move(tail));
  }
  return out;
}

std::string NormalizedTokenString(std::string_view text) {
  std::string out;
  for (const Token& tok : Tokenize(text)) {
    if (!out.empty()) out.push_back(' ');
    out += tok.text;
  }
  return out;
}

}  // namespace saga::text
