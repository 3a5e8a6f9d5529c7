// mw-analyze: a minimal C++ lexer.
//
// Produces an identifier/punctuation token stream with line numbers, with
// comments and string/char literals stripped out of the stream but comments
// retained per-line (suppressions and `// relaxed:` justifications live in
// them). Preprocessor directives (including continuation lines) are kept
// out of the main stream: the analyzer reasons about the token stream of
// one configuration, not the preprocessed program, and `#define` bodies
// would otherwise be misread as code at namespace scope. Their tokens land
// in a separate stream that only the identifier bans read.
#pragma once

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mwa {

enum class Tok {
    kIdent,   // identifiers and keywords
    kNumber,  // numeric literals (pp-number approximation)
    kString,  // string literal (text dropped)
    kChar,    // char literal (text dropped)
    kPunct,   // every operator/punctuator, one logical token ("::" is one)
};

struct Token {
    Tok kind;
    std::string text;  // identifier spelling or punctuator; empty for literals
    int line = 0;
};

struct LexedFile {
    std::string path;  // display path (root-relative)
    std::vector<Token> tokens;
    std::vector<Token> directive_tokens;  // tokens of `#...` lines, `#` excluded
    // `#include <header>` directives: line -> "<header>".
    std::vector<std::pair<int, std::string>> includes;
    // line number -> concatenated comment text appearing on that line. A
    // block comment contributes to the line it STARTS on (trailing
    // justifications and allow() markers are same-line by convention).
    std::unordered_map<int, std::string> comments;
};

/// Tokenize `text`. Never fails: unrecognized bytes are skipped.
LexedFile lex(const std::string& path, const std::string& text);

}  // namespace mwa
