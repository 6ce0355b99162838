// lead_lint: project-invariant static analysis for the LEAD tree.
//
// A standalone tokenizer-based linter (no libclang): it lexes C++ source,
// strips comments and literals, and pattern-matches token streams against
// the project invariants that the test suite can only probe indirectly —
// determinism hazards, silently dropped Status results, raw ownership,
// exact float comparison, and I/O or process-exit calls inside library
// code. It is deliberately heuristic: the goal is catching the bug class
// cheaply at build time, not full semantic analysis. Findings that are
// provably fine are suppressed per line with an allow marker naming the
// rules: a comment of the form `lead-lint:` followed immediately by
// `allow(rule-a, rule-b)` on the offending line. (The form is spelled
// out here instead of shown verbatim so this doc comment is not itself
// parsed as a suppression — --report-allows would flag it as dead.)
//
// Usage:
//   lead_lint [--lib] [--json] [--report-allows] [--list-rules]
//             <file-or-dir>...
//
// Directories are scanned recursively for .h/.cc/.hpp/.cpp/.cxx files;
// directories named lint_fixtures, golden, or build* are skipped unless
// named explicitly. Rules gated to library code apply to paths under a
// src/ component, or to every input when --lib is given; poll-coverage
// is further gated to src/core (or --lib), io-unbounded-loop to src/io
// (or --lib), libm-in-nn to src/nn (or --lib). Output is one
// `file:line rule message` line per violation (or one JSON document with
// --json); --report-allows additionally reports every allow marker that
// suppressed nothing in this run (dead suppressions count as violations
// for the exit status). Exit status is 0 when clean, 1 when violations
// were found, 2 on usage or I/O errors.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

struct RuleInfo {
  const char* name;
  const char* summary;
};

constexpr RuleInfo kRules[] = {
    {"rand", "rand()/srand() instead of the seeded lead::Rng"},
    {"raw-rng",
     "std:: random engine outside src/common/rng.h breaks determinism"},
    {"wall-clock", "time(nullptr)-style wall-clock seeding is nondeterministic"},
    {"unordered-iter",
     "iteration order of an unordered container is nondeterministic"},
    {"discarded-status", "result of a Status/StatusOr-returning call dropped"},
    {"raw-new", "raw new; use make_unique/make_shared or a container"},
    {"raw-delete", "raw delete; prefer scoped ownership"},
    {"float-eq", "exact floating-point ==/!= comparison"},
    {"matrix-in-kernel",
     "Matrix temporary inside a registered operator kernel body"},
    {"cout-in-lib", "std::cout in library code; return data or use Status"},
    {"exit-in-lib", "exit() in library code; return Status instead"},
    {"stderr", "direct stderr output in library code; log via obs/log.h"},
    {"pragma-once", "header is missing #pragma once"},
    {"io-unbounded-loop",
     "reader loop in src/io with no cancellation poll point"},
    {"strategy-chunking",
     "ParallelForDynamic chunk hardcoded; take it from DynamicChunk"},
    {"status-path",
     "Status-returning function has a silent fall-through failure path"},
    {"lock-scope",
     "naked .lock()/.unlock() outside RAII in library code"},
    {"poll-coverage",
     "unbounded streaming loop in src/core with no cancellation poll"},
    {"signal-safety",
     "async-signal-unsafe construct in a signal-scope-marked file"},
    {"libm-in-nn",
     "libm exp/expm1/tanh/log/log1p call in src/nn; use nn/vmath.h"},
};

bool IsKnownRule(const std::string& name) {
  for (const RuleInfo& r : kRules) {
    if (name == r.name) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

struct Token {
  enum Kind { kIdent, kNumber, kPunct };
  Kind kind;
  std::string text;
  int line;
  bool is_float = false;  // numbers only
};

struct LexedFile {
  std::vector<Token> tokens;
  // line -> rules allowed on that line via an allow-marker comment.
  std::map<int, std::set<std::string>> allowed;
  bool has_pragma_once = false;
  // A comment anywhere in the file declared the signal-scope marker
  // (the words `lead-lint:` and `signal-scope` adjacent; not spelled out
  // here so this file does not mark itself): the whole file may run
  // inside a signal handler, so signal-safety applies to every token.
  bool signal_scope = false;
};

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

// Parses an allow marker (kMarker below) out of a comment's text; also
// recognizes the file-scope `lead-lint:` `signal-scope` declaration
// (spelled as two adjacent words in real code) that arms the
// signal-safety rule for the whole file.
void ParseAllowMarker(const std::string& comment, int line, LexedFile* out) {
  if (comment.find("lead-lint: signal-scope") != std::string::npos) {
    out->signal_scope = true;
  }
  const std::string kMarker = "lead-lint: allow(";
  size_t pos = comment.find(kMarker);
  if (pos == std::string::npos) return;
  size_t begin = pos + kMarker.size();
  size_t end = comment.find(')', begin);
  if (end == std::string::npos) return;
  std::string list = comment.substr(begin, end - begin);
  std::string name;
  std::stringstream ss(list);
  while (std::getline(ss, name, ',')) {
    size_t a = name.find_first_not_of(" \t");
    size_t b = name.find_last_not_of(" \t");
    if (a == std::string::npos) continue;
    out->allowed[line].insert(name.substr(a, b - a + 1));
  }
}

// Tokenizes `content`, stripping comments, string/char literals, and
// preprocessor directives (tracked separately for #pragma once). Comment
// text is scanned for suppression markers.
LexedFile Lex(const std::string& content) {
  LexedFile out;
  const size_t n = content.size();
  size_t i = 0;
  int line = 1;
  bool at_line_start = true;  // only whitespace seen since the newline

  auto advance = [&](size_t count) {
    for (size_t k = 0; k < count && i < n; ++k, ++i) {
      if (content[i] == '\n') {
        ++line;
        at_line_start = true;
      } else if (!std::isspace(static_cast<unsigned char>(content[i]))) {
        at_line_start = false;
      }
    }
  };

  while (i < n) {
    char c = content[i];
    // Preprocessor directive: skip to end of line (honoring \-continuations).
    if (c == '#' && at_line_start) {
      std::string directive;
      while (i < n) {
        if (content[i] == '\\' && i + 1 < n && content[i + 1] == '\n') {
          advance(2);
          continue;
        }
        if (content[i] == '\n') break;
        directive.push_back(content[i]);
        advance(1);
      }
      // Normalize interior whitespace before matching.
      std::string squeezed;
      for (char d : directive) {
        if (std::isspace(static_cast<unsigned char>(d))) {
          if (!squeezed.empty() && squeezed.back() != ' ')
            squeezed.push_back(' ');
        } else {
          squeezed.push_back(d);
        }
      }
      if (squeezed == "#pragma once" || squeezed == "# pragma once")
        out.has_pragma_once = true;
      continue;
    }
    if (c == '/' && i + 1 < n && content[i + 1] == '/') {
      size_t eol = content.find('\n', i);
      if (eol == std::string::npos) eol = n;
      ParseAllowMarker(content.substr(i, eol - i), line, &out);
      advance(eol - i);
      continue;
    }
    if (c == '/' && i + 1 < n && content[i + 1] == '*') {
      size_t end = content.find("*/", i + 2);
      if (end == std::string::npos) end = n;
      ParseAllowMarker(content.substr(i, end - i), line, &out);
      advance(end == n ? n - i : end + 2 - i);
      continue;
    }
    // Raw string literal R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && content[i + 1] == '"' &&
        (i == 0 || !IsIdentChar(content[i - 1]))) {
      size_t delim_end = content.find('(', i + 2);
      if (delim_end != std::string::npos) {
        std::string close =
            ")" + content.substr(i + 2, delim_end - i - 2) + "\"";
        size_t end = content.find(close, delim_end + 1);
        if (end == std::string::npos) {
          advance(n - i);
        } else {
          advance(end + close.size() - i);
        }
        continue;
      }
    }
    if (c == '"' || c == '\'') {
      char quote = c;
      advance(1);
      while (i < n && content[i] != quote) {
        if (content[i] == '\\' && i + 1 < n) advance(2);
        else advance(1);
      }
      advance(1);  // closing quote
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance(1);
      continue;
    }
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(content[j])) ++j;
      out.tokens.push_back(
          {Token::kIdent, content.substr(i, j - i), line, false});
      advance(j - i);
      continue;
    }
    if (IsDigit(c) || (c == '.' && i + 1 < n && IsDigit(content[i + 1]))) {
      size_t j = i;
      bool is_hex = (content[j] == '0' && j + 1 < n &&
                     (content[j + 1] == 'x' || content[j + 1] == 'X'));
      bool saw_dot = false;
      bool saw_exp = false;
      bool float_suffix = false;
      while (j < n) {
        char d = content[j];
        if (IsDigit(d) || (is_hex && std::isxdigit(static_cast<unsigned char>(d)))) {
          ++j;
        } else if (d == '.') {
          saw_dot = true;
          ++j;
        } else if (!is_hex && (d == 'e' || d == 'E') && j + 1 < n &&
                   (IsDigit(content[j + 1]) || content[j + 1] == '+' ||
                    content[j + 1] == '-')) {
          saw_exp = true;
          j += 2;
        } else if (d == 'f' || d == 'F') {
          if (!is_hex) float_suffix = true;
          ++j;
        } else if (IsIdentChar(d) || d == 'x' || d == 'X') {
          ++j;  // suffixes like u, l, 0x prefix
        } else {
          break;
        }
      }
      Token tok{Token::kNumber, content.substr(i, j - i), line, false};
      tok.is_float = !is_hex && (saw_dot || saw_exp || float_suffix);
      out.tokens.push_back(tok);
      advance(j - i);
      continue;
    }
    // Punctuation; combine only the pairs the rules care about.
    static const char* kPairs[] = {"::", "==", "!=", "->"};
    std::string punct(1, c);
    if (i + 1 < n) {
      std::string two = content.substr(i, 2);
      for (const char* p : kPairs) {
        if (two == p) {
          punct = two;
          break;
        }
      }
    }
    out.tokens.push_back({Token::kPunct, punct, line, false});
    advance(punct.size());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Analysis helpers
// ---------------------------------------------------------------------------

struct Violation {
  std::string file;
  int line;
  std::string rule;
  std::string message;
};

class FileLinter {
 public:
  FileLinter(std::string path, const LexedFile* lexed, bool lib_rules,
             bool io_rules, bool core_rules, bool nn_rules, bool rng_exempt,
             const std::set<std::string>* status_fns,
             std::vector<Violation>* out,
             std::map<int, std::set<std::string>>* used_allows)
      : path_(std::move(path)),
        lexed_(lexed),
        lib_rules_(lib_rules),
        io_rules_(io_rules),
        core_rules_(core_rules),
        nn_rules_(nn_rules),
        rng_exempt_(rng_exempt),
        status_fns_(status_fns),
        out_(out),
        used_allows_(used_allows) {}

  void Run() {
    const std::vector<Token>& toks = lexed_->tokens;
    CollectUnorderedNames();
    CollectStatusFunctionBodies();
    for (size_t i = 0; i < toks.size(); ++i) {
      CheckRand(i);
      CheckRawRng(i);
      CheckWallClock(i);
      CheckUnorderedIter(i);
      CheckDiscardedStatus(i);
      CheckRawNewDelete(i);
      CheckFloatEq(i);
      CheckMatrixInKernel(i);
      if (lib_rules_) {
        CheckLibOnly(i);
        CheckStrategyChunking(i);
        CheckLockScope(i);
      }
      if (io_rules_) CheckIoUnboundedLoop(i);
      if (core_rules_) CheckPollCoverage(i);
      if (nn_rules_) CheckLibmInNn(i);
      if (lexed_->signal_scope) CheckSignalSafety(i);
    }
    CheckStatusPaths();
    if (IsHeader() && !lexed_->has_pragma_once) {
      Report(1, "pragma-once", "header file has no #pragma once");
    }
  }

 private:
  bool IsHeader() const {
    return path_.size() > 2 && (path_.rfind(".h") == path_.size() - 2 ||
                                path_.rfind(".hpp") == path_.size() - 4);
  }

  const Token& Tok(size_t i) const { return lexed_->tokens[i]; }
  size_t Size() const { return lexed_->tokens.size(); }
  bool Is(size_t i, const char* text) const {
    return i < Size() && Tok(i).text == text;
  }
  bool PrevIs(size_t i, const char* text) const {
    return i > 0 && Tok(i - 1).text == text;
  }
  bool IsMemberAccess(size_t i) const {
    return i > 0 && (Tok(i - 1).text == "." || Tok(i - 1).text == "->");
  }

  void Report(int line, const std::string& rule, const std::string& message) {
    auto it = lexed_->allowed.find(line);
    if (it != lexed_->allowed.end() && it->second.count(rule)) {
      // Record the suppression so --report-allows can tell live markers
      // from dead ones.
      (*used_allows_)[line].insert(rule);
      return;
    }
    out_->push_back({path_, line, rule, message});
  }

  // Index of the matching closer for the opener at `i`, or Size().
  size_t MatchingClose(size_t i, const char* open, const char* close) const {
    int depth = 0;
    for (size_t j = i; j < Size(); ++j) {
      if (Tok(j).text == open) ++depth;
      else if (Tok(j).text == close && --depth == 0) return j;
    }
    return Size();
  }

  // --- determinism -------------------------------------------------------

  void CheckRand(size_t i) {
    static const std::set<std::string> kBad = {"rand", "srand", "rand_r",
                                              "drand48", "srandom", "random"};
    if (Tok(i).kind != Token::kIdent || !kBad.count(Tok(i).text)) return;
    if (!Is(i + 1, "(") || IsMemberAccess(i)) return;
    // `random` only as std::random / ::random — too many idents named random.
    if (Tok(i).text == "random" && !PrevIs(i, "::")) return;
    Report(Tok(i).line, "rand",
           Tok(i).text + "() is unseeded; draw from lead::Rng instead");
  }

  void CheckRawRng(size_t i) {
    static const std::set<std::string> kEngines = {
        "random_device", "mt19937",      "mt19937_64", "default_random_engine",
        "minstd_rand",   "minstd_rand0", "ranlux24",   "ranlux48",
        "knuth_b"};
    if (rng_exempt_) return;
    if (Tok(i).kind != Token::kIdent || !kEngines.count(Tok(i).text)) return;
    if (IsMemberAccess(i)) return;
    Report(Tok(i).line, "raw-rng",
           "std::" + Tok(i).text +
               " outside src/common/rng.h; all randomness flows through "
               "lead::Rng");
  }

  void CheckWallClock(size_t i) {
    if (Tok(i).kind != Token::kIdent || Tok(i).text != "time") return;
    if (IsMemberAccess(i) || !Is(i + 1, "(")) return;
    if ((Is(i + 2, "nullptr") || Is(i + 2, "NULL") || Is(i + 2, "0")) &&
        Is(i + 3, ")")) {
      Report(Tok(i).line, "wall-clock",
             "time(" + Tok(i + 2).text +
                 ") is wall-clock-dependent; seed from configuration");
    }
  }

  // Variables (and type aliases) whose declared type is an unordered
  // container. A tokenizer cannot do real type inference; this catches the
  // declaration patterns the tree actually uses.
  void CollectUnorderedNames() {
    static const std::set<std::string> kContainers = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    for (size_t i = 0; i + 1 < Size(); ++i) {
      bool container_type =
          kContainers.count(Tok(i).text) || unordered_aliases_.count(Tok(i).text);
      if (Tok(i).kind != Token::kIdent || !container_type) continue;
      size_t j = i + 1;
      if (Is(j, "<")) {
        j = MatchingClose(j, "<", ">");
        if (j == Size()) continue;
        ++j;
      } else if (kContainers.count(Tok(i).text)) {
        continue;  // bare mention (e.g. in a using-declaration's target)
      }
      while (Is(j, "&") || Is(j, "*")) ++j;
      if (j >= Size() || Tok(j).kind != Token::kIdent) continue;
      // `using Alias = std::unordered_map<...>;` names the alias earlier.
      unordered_vars_.insert(Tok(j).text);
    }
    // Aliases: using X = ... unordered_map ... ;
    for (size_t i = 0; i + 3 < Size(); ++i) {
      if (!Is(i, "using") || Tok(i + 1).kind != Token::kIdent ||
          !Is(i + 2, "=")) {
        continue;
      }
      for (size_t j = i + 3; j < Size() && !Is(j, ";"); ++j) {
        if (kContainers.count(Tok(j).text)) {
          unordered_aliases_.insert(Tok(i + 1).text);
          break;
        }
      }
    }
  }

  void CheckUnorderedIter(size_t i) {
    if (!Is(i, "for") || !Is(i + 1, "(")) return;
    size_t close = MatchingClose(i + 1, "(", ")");
    if (close == Size()) return;
    // Find the range-for colon at paren depth 1.
    size_t colon = Size();
    int depth = 0;
    for (size_t j = i + 1; j < close; ++j) {
      if (Tok(j).text == "(") ++depth;
      else if (Tok(j).text == ")") --depth;
      else if (Tok(j).text == ":" && depth == 1) {
        colon = j;
        break;
      }
    }
    if (colon == Size()) return;
    for (size_t j = colon + 1; j < close; ++j) {
      if (Tok(j).kind != Token::kIdent) continue;
      if (unordered_vars_.count(Tok(j).text) ||
          unordered_aliases_.count(Tok(j).text) ||
          Tok(j).text == "unordered_map" || Tok(j).text == "unordered_set") {
        Report(Tok(i).line, "unordered-iter",
               "range-for over unordered container '" + Tok(j).text +
                   "' has nondeterministic order; iterate a sorted view or "
                   "annotate why order cannot matter");
        return;
      }
    }
  }

  // --- dropped results ----------------------------------------------------

  void CheckDiscardedStatus(size_t i) {
    // Statement start: first token, or right after one of these.
    if (i > 0) {
      const std::string& p = Tok(i - 1).text;
      if (p != ";" && p != "{" && p != "}" && p != "else" && p != ")" &&
          p != ":") {
        return;
      }
    }
    static const std::set<std::string> kKeywords = {
        "return",  "if",     "while",  "for",      "switch", "do",
        "case",    "new",    "delete", "co_await", "goto",   "using",
        "typedef", "static", "const",  "constexpr"};
    if (Tok(i).kind != Token::kIdent || kKeywords.count(Tok(i).text)) return;
    // Parse an identifier chain `a::b.c->Fn` ending right before `(`.
    size_t j = i;
    std::string callee;
    while (j < Size()) {
      if (Tok(j).kind == Token::kIdent) {
        callee = Tok(j).text;
        ++j;
        if (Is(j, "::") || Is(j, ".") || Is(j, "->")) {
          ++j;
          continue;
        }
        break;
      }
      return;
    }
    if (!Is(j, "(")) return;
    size_t close = MatchingClose(j, "(", ")");
    if (close == Size() || !Is(close + 1, ";")) return;
    if (!status_fns_->count(callee)) return;
    Report(Tok(i).line, "discarded-status",
           "result of Status-returning call '" + callee +
               "' is discarded; handle it, LEAD_RETURN_IF_ERROR it, or cast "
               "to void with a reason");
  }

  // --- ownership ----------------------------------------------------------

  void CheckRawNewDelete(size_t i) {
    if (Tok(i).kind != Token::kIdent) return;
    if (Tok(i).text == "new") {
      if (PrevIs(i, "operator")) return;
      Report(Tok(i).line, "raw-new",
             "raw new; use std::make_unique/make_shared or a container");
    } else if (Tok(i).text == "delete") {
      if (PrevIs(i, "=") || PrevIs(i, "operator")) return;
      Report(Tok(i).line, "raw-delete",
             "raw delete; prefer scoped ownership (unique_ptr)");
    }
  }

  // --- float comparison ---------------------------------------------------

  void CheckFloatEq(size_t i) {
    if (Tok(i).kind != Token::kPunct ||
        (Tok(i).text != "==" && Tok(i).text != "!=")) {
      return;
    }
    bool prev_float = i > 0 && Tok(i - 1).kind == Token::kNumber &&
                      Tok(i - 1).is_float;
    bool next_float = i + 1 < Size() && Tok(i + 1).kind == Token::kNumber &&
                      Tok(i + 1).is_float;
    if (!prev_float && !next_float) return;
    Report(Tok(i).line, "float-eq",
           "exact floating-point " + Tok(i).text +
               " comparison; use a tolerance or annotate why exactness is "
               "intended");
  }

  // --- operator kernels ---------------------------------------------------

  // Registered operator kernels — functions taking `const OpCall&` — are
  // replayed by compiled execution plans whose buffers live in a
  // pre-planned arena. A Matrix temporary constructed inside a kernel
  // body heap-allocates on every replay and silently defeats the
  // allocation-free steady state; kernels must write through the
  // OpCall's TensorViews instead.
  void CheckMatrixInKernel(size_t i) {
    if (Tok(i).kind != Token::kIdent || Tok(i).text != "OpCall") return;
    if (!Is(i + 1, "&")) return;
    // Scan to the parameter list's closing paren, then require a body.
    // Declarations and the `using OpKernel = void (*)(const OpCall&);`
    // alias hit `;` before any `{` and are skipped.
    size_t close = i + 2;
    while (close < Size() && !Is(close, ")") && !Is(close, ";") &&
           !Is(close, "{")) {
      ++close;
    }
    if (!Is(close, ")")) return;
    size_t j = close + 1;
    while (Is(j, "const") || Is(j, "noexcept")) ++j;
    if (!Is(j, "{")) return;
    const size_t body_end = MatchingClose(j, "{", "}");
    for (size_t k = j + 1; k < body_end; ++k) {
      if (Tok(k).kind == Token::kIdent && Tok(k).text == "Matrix" &&
          !IsMemberAccess(k)) {
        Report(Tok(k).line, "matrix-in-kernel",
               "Matrix temporary inside a registered operator kernel; write "
               "through the OpCall's TensorViews so plan replay stays "
               "allocation-free");
      }
    }
  }

  // --- io reader loops ----------------------------------------------------

  // Reader loops in src/io walk external input whose size the process
  // does not control: a `while (true)` tag scan or a `while (getline)`
  // row loop can spin for the whole file. Each such loop must contain a
  // cancellation poll (PollCancel / CurrentCancel / Cancelled) so
  // deadlines bind mid-file (DESIGN.md §"Deadlines, cancellation, and
  // budgets"). Loops that are provably bounded by already-loaded data
  // carry an allow marker instead.
  void CheckIoUnboundedLoop(size_t i) {
    if (!Is(i, "while") || !Is(i + 1, "(") || PrevIs(i, "do")) return;
    const size_t cond_close = MatchingClose(i + 1, "(", ")");
    if (cond_close == Size()) return;
    // Trigger only on the unbounded shapes: `while (true)`/`while (1)`
    // or a condition that consumes a stream (getline / a Read* helper).
    bool unbounded = false;
    if (cond_close == i + 3 && (Is(i + 2, "true") || Is(i + 2, "1"))) {
      unbounded = true;
    } else {
      for (size_t j = i + 2; j < cond_close; ++j) {
        if (Tok(j).kind != Token::kIdent) continue;
        if (Tok(j).text == "getline" || Tok(j).text.rfind("Read", 0) == 0) {
          unbounded = true;
          break;
        }
      }
    }
    if (!unbounded) return;
    // Body: the braced block (or single statement) after the condition.
    size_t body_end;
    if (Is(cond_close + 1, "{")) {
      body_end = MatchingClose(cond_close + 1, "{", "}");
    } else {
      body_end = cond_close + 1;
      while (body_end < Size() && !Is(body_end, ";")) ++body_end;
    }
    static const std::set<std::string> kPolls = {"PollCancel", "CurrentCancel",
                                                "Cancelled"};
    for (size_t j = cond_close + 1; j < body_end; ++j) {
      if (Tok(j).kind == Token::kIdent && kPolls.count(Tok(j).text)) return;
    }
    Report(Tok(i).line, "io-unbounded-loop",
           "loop over external input has no cancellation poll; call "
           "PollCancel on a stride (or annotate why the loop is bounded)");
  }

  // --- libm in the nn kernels ---------------------------------------------

  // The nn substrate's transcendentals come from nn/vmath.h, which returns
  // the same bits on every ISA and host. A libm exp/tanh/log call in
  // src/nn would make results, and with them the golden fixtures, depend
  // on which libm variant the host's glibc picks. Flags calls of the
  // exp/expm1/tanh/log/log1p families (plain, f and l suffixes), bare or
  // std::-qualified; member calls such as `logger.log(`, other
  // namespaces' functions and declarations are not libm calls.
  void CheckLibmInNn(size_t i) {
    static const std::set<std::string> kLibm = {
        "exp",  "expf",  "expl",  "expm1", "expm1f", "expm1l",
        "tanh", "tanhf", "tanhl", "log",   "logf",   "logl",
        "log1p", "log1pf", "log1pl"};
    if (Tok(i).kind != Token::kIdent || !kLibm.count(Tok(i).text)) return;
    if (!Is(i + 1, "(") || IsMemberAccess(i)) return;
    // A type before the name declares or defines a function of that name.
    static const std::set<std::string> kBeforeCall = {"return", "else",
                                                     "throw", "co_return"};
    if (i > 0 && Tok(i - 1).kind == Token::kIdent &&
        !kBeforeCall.count(Tok(i - 1).text)) {
      return;
    }
    // A qualifier other than std:: (or the global ::) names something else.
    if (PrevIs(i, "::") && i >= 2 && Tok(i - 2).kind == Token::kIdent &&
        Tok(i - 2).text != "std") {
      return;
    }
    Report(Tok(i).line, "libm-in-nn",
           Tok(i).text + "() is libm, whose bits depend on the host; use "
                         "nn/vmath.h (vmath::Exp/Tanh/Sigmoid/Log) instead");
  }

  // --- strategy chunking --------------------------------------------------

  // The work-stealing grain of a ParallelForDynamic loop is an
  // ExecStrategy policy decision (common/exec_strategy.h DynamicChunk),
  // not a per-call-site constant: a hardcoded literal pins one site to a
  // grain that silently stops tracking the strategy's tuning. Flags a
  // call whose third top-level argument (the chunk) is a bare number.
  void CheckStrategyChunking(size_t i) {
    if (Tok(i).kind != Token::kIdent || Tok(i).text != "ParallelForDynamic") {
      return;
    }
    if (!Is(i + 1, "(")) return;
    const size_t close = MatchingClose(i + 1, "(", ")");
    if (close == Size()) return;
    int depth = 0;
    int commas = 0;
    size_t begin = 0;
    size_t end = close;
    for (size_t j = i + 1; j < close && commas < 3; ++j) {
      const std::string& t = Tok(j).text;
      if (t == "(" || t == "[" || t == "{") {
        ++depth;
      } else if (t == ")" || t == "]" || t == "}") {
        --depth;
      } else if (t == "," && depth == 1) {
        ++commas;
        if (commas == 2) begin = j + 1;
        if (commas == 3) end = j;
      }
    }
    if (begin == 0) return;  // fewer than three arguments: a declaration
    if (end == begin + 1 && Tok(begin).kind == Token::kNumber) {
      Report(Tok(begin).line, "strategy-chunking",
             "ParallelForDynamic chunk is the hardcoded constant " +
                 Tok(begin).text +
                 "; take the grain from DynamicChunk(n, lanes) so the site "
                 "tracks ExecStrategy tuning");
    }
  }

  // --- library-only rules -------------------------------------------------

  void CheckLibOnly(size_t i) {
    if (Tok(i).kind != Token::kIdent) return;
    if (Tok(i).text == "cout" && !IsMemberAccess(i)) {
      Report(Tok(i).line, "cout-in-lib",
             "std::cout in library code; return data to the caller instead");
    } else if (Tok(i).text == "exit" && Is(i + 1, "(") && !IsMemberAccess(i)) {
      Report(Tok(i).line, "exit-in-lib",
             "exit() in library code; return a Status and let the caller "
             "decide");
    } else if (Tok(i).text == "cerr" && !IsMemberAccess(i)) {
      Report(Tok(i).line, "stderr",
             "std::cerr in library code; log via obs/log.h (LEAD_LOG)");
    } else if (Tok(i).text == "fprintf" && !IsMemberAccess(i) &&
               Is(i + 1, "(") && i + 2 < Size() &&
               Tok(i + 2).text == "stderr") {
      Report(Tok(i).line, "stderr",
             "fprintf(stderr, ...) in library code; log via obs/log.h "
             "(LEAD_LOG)");
    }
  }

  // --- status failure paths -----------------------------------------------

  struct FnScope {
    size_t body_begin;  // index of the body's '{'
    size_t body_end;    // index of its matching '}' (or Size())
  };

  // Records the body range of every function *definition* returning
  // Status or StatusOr<...> (including `Class::Method` declarators), so
  // the status-path checks only look inside code that is contractually a
  // failure channel.
  void CollectStatusFunctionBodies() {
    for (size_t i = 0; i < Size(); ++i) {
      if (Tok(i).kind != Token::kIdent) continue;
      if (i > 0) {
        const std::string& p = Tok(i - 1).text;
        if (p == "class" || p == "struct" || p == "enum" || p == "return" ||
            p == "." || p == "->" || p == "<") {
          continue;
        }
      }
      size_t j;
      if (Tok(i).text == "Status") {
        j = i + 1;
      } else if (Tok(i).text == "StatusOr" && Is(i + 1, "<")) {
        j = MatchingClose(i + 1, "<", ">");
        if (j == Size()) continue;
        ++j;
      } else {
        continue;
      }
      if (j >= Size() || Tok(j).kind != Token::kIdent) continue;
      // Declarator: ident (:: ident)* immediately followed by '('.
      size_t k = j;
      while (k + 2 < Size() && Is(k + 1, "::") &&
             Tok(k + 2).kind == Token::kIdent) {
        k += 2;
      }
      if (!Is(k + 1, "(")) continue;
      const size_t params_close = MatchingClose(k + 1, "(", ")");
      if (params_close == Size()) continue;
      size_t b = params_close + 1;
      while (Is(b, "const") || Is(b, "noexcept") || Is(b, "override") ||
             Is(b, "final")) {
        ++b;
      }
      if (!Is(b, "{")) continue;  // declaration only
      status_fn_bodies_.push_back({b, MatchingClose(b, "{", "}")});
    }
  }

  void CheckStatusPaths() {
    for (const FnScope& fn : status_fn_bodies_) {
      CheckUnconsumedStatusLocal(fn);
      CheckSilentOkBranch(fn);
    }
  }

  // (A) A `Status` local that is never looked at again after its
  // declaration statement: the failure it captured falls through
  // silently when the function later returns Ok on another path.
  void CheckUnconsumedStatusLocal(const FnScope& fn) {
    for (size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
      if (Tok(i).kind != Token::kIdent || Tok(i).text != "Status") continue;
      if (IsMemberAccess(i) || PrevIs(i, "return") || PrevIs(i, "class") ||
          PrevIs(i, "struct") || PrevIs(i, "enum") || PrevIs(i, "<")) {
        continue;
      }
      if (i + 1 >= fn.body_end || Tok(i + 1).kind != Token::kIdent) continue;
      const std::string& name = Tok(i + 1).text;
      if (!Is(i + 2, "=") && !Is(i + 2, ";") && !Is(i + 2, "(")) continue;
      // Walk to the end of the declaration statement, skipping nested
      // parens/braces (initializer lambdas would otherwise cut it short).
      size_t stmt_end = i + 2;
      while (stmt_end < fn.body_end && !Is(stmt_end, ";")) {
        if (Is(stmt_end, "(")) {
          stmt_end = MatchingClose(stmt_end, "(", ")");
          if (stmt_end == Size()) return;
        } else if (Is(stmt_end, "{")) {
          stmt_end = MatchingClose(stmt_end, "{", "}");
          if (stmt_end == Size()) return;
        }
        ++stmt_end;
      }
      bool consumed = false;
      for (size_t j = stmt_end; j < fn.body_end; ++j) {
        if (Tok(j).kind == Token::kIdent && Tok(j).text == name) {
          consumed = true;
          break;
        }
      }
      if (!consumed) {
        Report(Tok(i).line, "status-path",
               "Status local '" + name +
                   "' is never consulted after its declaration; return it, "
                   "LEAD_RETURN_IF_ERROR it, or remove the variable");
      }
    }
  }

  // (B) An `if (!x.ok())` branch that neither propagates (return/throw),
  // alters control flow (continue/break/goto), records anything (an
  // assignment), nor hands the failure to a project macro: the error is
  // checked and then dropped on the floor.
  void CheckSilentOkBranch(const FnScope& fn) {
    for (size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
      if (!Is(i, "if") || !Is(i + 1, "(") || !Is(i + 2, "!")) continue;
      const size_t cond_close = MatchingClose(i + 1, "(", ")");
      if (cond_close >= fn.body_end) continue;
      // Condition must be exactly `! chain .ok()` / `! chain ->ok()`.
      size_t j = i + 3;
      if (j >= cond_close || Tok(j).kind != Token::kIdent) continue;
      ++j;
      while (j + 1 < cond_close &&
             (Is(j, ".") || Is(j, "->") || Is(j, "::")) &&
             Tok(j + 1).kind == Token::kIdent && Tok(j + 1).text != "ok") {
        j += 2;
      }
      if (!((Is(j, ".") || Is(j, "->")) && Is(j + 1, "ok") &&
            Is(j + 2, "(") && Is(j + 3, ")") && j + 4 == cond_close)) {
        continue;
      }
      size_t branch_begin = cond_close + 1;
      size_t branch_end;
      if (Is(branch_begin, "{")) {
        branch_end = MatchingClose(branch_begin, "{", "}");
      } else {
        branch_end = branch_begin;
        while (branch_end < fn.body_end && !Is(branch_end, ";")) ++branch_end;
      }
      bool handled = false;
      for (size_t k = branch_begin; k <= branch_end && k < Size(); ++k) {
        const std::string& t = Tok(k).text;
        if (t == "return" || t == "throw" || t == "continue" || t == "break" ||
            t == "goto" || t == "=" || t.rfind("LEAD_", 0) == 0) {
          handled = true;
          break;
        }
      }
      if (!handled) {
        Report(Tok(i).line, "status-path",
               "if (!...ok()) branch neither propagates nor records the "
               "failure; return the status, retry, or log it via obs/log.h");
      }
    }
  }

  // --- lock scope ---------------------------------------------------------

  // Library code must hold locks through RAII (MutexLock, lock_guard):
  // a naked .lock()/.unlock() pair leaks the capability on every early
  // return and is invisible to the thread-safety analysis. The annotated
  // wrappers in common/annotate.h are the one sanctioned boundary and
  // carry per-line allow markers.
  void CheckLockScope(size_t i) {
    if (Tok(i).kind != Token::kIdent ||
        (Tok(i).text != "lock" && Tok(i).text != "unlock")) {
      return;
    }
    if (!IsMemberAccess(i) || !Is(i + 1, "(") || !Is(i + 2, ")")) return;
    Report(Tok(i).line, "lock-scope",
           "naked ." + Tok(i).text +
               "() outside an RAII guard; hold the mutex through MutexLock "
               "(common/annotate.h)");
  }

  // --- signal safety ------------------------------------------------------

  // A file whose comments carry the signal-scope marker (see LexedFile)
  // declares that its code may run inside a signal handler interrupting
  // arbitrary threads (obs/profiler_signal.cc). POSIX async-signal-safety
  // then forbids anything that can take the allocator lock, a mutex, or
  // the stdio lock: heap allocation (including std::string and the
  // containers), locks, stdio, and the LEAD_LOG/LEAD_CHECK macros (they
  // allocate and lock the sink). Only lock-free atomics and same-thread
  // TLS reads are safe. The rule is gated by the marker, not by --lib.
  void CheckSignalSafety(size_t i) {
    static const std::set<std::string> kBanned = {
        "malloc",      "calloc",        "realloc",     "free",
        "printf",      "fprintf",       "sprintf",     "snprintf",
        "vsnprintf",   "puts",          "fputs",       "fwrite",
        "fopen",       "fclose",        "fflush",      "syslog",
        "MutexLock",   "lock_guard",    "unique_lock", "scoped_lock",
        "mutex",       "shared_mutex",  "condition_variable",
        "string",      "vector",        "deque",       "map",
        "unordered_map", "make_unique", "make_shared", "ostringstream",
        "stringstream"};
    if (Tok(i).kind != Token::kIdent) return;
    const std::string& t = Tok(i).text;
    if (t == "new" || t == "delete") {
      if (PrevIs(i, "operator") || PrevIs(i, "=")) return;
      Report(Tok(i).line, "signal-safety",
             "raw " + t +
                 " in signal-scope code can deadlock on the allocator lock "
                 "when the handler interrupts an allocation");
      return;
    }
    if (t.rfind("LEAD_LOG", 0) == 0 || t.rfind("LEAD_CHECK", 0) == 0) {
      Report(Tok(i).line, "signal-safety",
             t + " allocates and locks the log sink; signal-scope code "
                 "cannot log");
      return;
    }
    if (!kBanned.count(t) || IsMemberAccess(i)) return;
    Report(Tok(i).line, "signal-safety",
           "'" + t +
               "' is not async-signal-safe; signal-scope code may only use "
               "lock-free atomics and same-thread TLS reads");
  }

  // --- poll coverage (src/core streaming paths) ---------------------------

  // Generalizes io-unbounded-loop to the core streaming paths: a
  // `for (;;)` pump or a `while (q.Pop(...))` / `while (it.Next(...))`
  // drain in src/core can run for the whole stream, so its body must
  // observe cancellation (PollCancel / CurrentCancel / Cancelled /
  // token.Check). When the io rule is active on the same file (--lib or
  // src/io), the while(true)/reader-condition shapes stay owned by
  // io-unbounded-loop so one loop never fires both rules.
  void CheckPollCoverage(size_t i) {
    bool unbounded = false;
    size_t body_begin = 0;
    if (Is(i, "for") && Is(i + 1, "(") && Is(i + 2, ";") && Is(i + 3, ";") &&
        Is(i + 4, ")")) {
      unbounded = true;
      body_begin = i + 5;
    } else if (Is(i, "while") && Is(i + 1, "(") && !PrevIs(i, "do")) {
      const size_t cond_close = MatchingClose(i + 1, "(", ")");
      if (cond_close == Size()) return;
      if (!io_rules_ && cond_close == i + 3 &&
          (Is(i + 2, "true") || Is(i + 2, "1"))) {
        unbounded = true;
      }
      for (size_t j = i + 2; !unbounded && j < cond_close; ++j) {
        if (Tok(j).kind != Token::kIdent) continue;
        const std::string& t = Tok(j).text;
        if (t == "Pop" || t == "Next") unbounded = true;
        if (!io_rules_ && (t == "getline" || t.rfind("Read", 0) == 0)) {
          unbounded = true;
        }
      }
      body_begin = cond_close + 1;
    }
    if (!unbounded) return;
    size_t body_end;
    if (Is(body_begin, "{")) {
      body_end = MatchingClose(body_begin, "{", "}");
    } else {
      body_end = body_begin;
      while (body_end < Size() && !Is(body_end, ";")) ++body_end;
    }
    static const std::set<std::string> kPolls = {"PollCancel", "CurrentCancel",
                                                 "Cancelled", "Check"};
    for (size_t j = body_begin; j < body_end; ++j) {
      if (Tok(j).kind == Token::kIdent && kPolls.count(Tok(j).text)) return;
    }
    Report(Tok(i).line, "poll-coverage",
           "unbounded streaming loop has no cancellation poll; check the "
           "token on a stride (or annotate why the loop is bounded)");
  }

  std::string path_;
  const LexedFile* lexed_;
  bool lib_rules_;
  bool io_rules_;
  bool core_rules_;
  bool nn_rules_;
  bool rng_exempt_;
  const std::set<std::string>* status_fns_;
  std::vector<Violation>* out_;
  std::map<int, std::set<std::string>>* used_allows_;

  std::set<std::string> unordered_vars_;
  std::set<std::string> unordered_aliases_;
  std::vector<FnScope> status_fn_bodies_;
};

// Collects names of functions declared to return Status or StatusOr<...>:
// the pattern `Status <ident> (` or `StatusOr < ... > <ident> (`.
void CollectStatusFunctions(const LexedFile& lexed,
                            std::set<std::string>* out) {
  const std::vector<Token>& toks = lexed.tokens;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind != Token::kIdent) continue;
    if (i > 0 && (toks[i - 1].text == "class" || toks[i - 1].text == "struct" ||
                  toks[i - 1].text == "enum" || toks[i - 1].text == "return" ||
                  toks[i - 1].text == "." || toks[i - 1].text == "->")) {
      continue;
    }
    size_t j = 0;
    if (toks[i].text == "Status") {
      j = i + 1;
    } else if (toks[i].text == "StatusOr" && toks[i + 1].text == "<") {
      int depth = 0;
      size_t k = i + 1;
      for (; k < toks.size(); ++k) {
        if (toks[k].text == "<") ++depth;
        else if (toks[k].text == ">" && --depth == 0) break;
      }
      if (k == toks.size()) continue;
      j = k + 1;
    } else {
      continue;
    }
    if (j + 1 < toks.size() && toks[j].kind == Token::kIdent &&
        toks[j + 1].text == "(") {
      out->insert(toks[j].text);
    }
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

bool HasSourceExtension(const fs::path& p) {
  std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".hpp" || ext == ".cpp" ||
         ext == ".cxx";
}

bool SkippedDirectory(const fs::path& p) {
  std::string name = p.filename().string();
  return name == "lint_fixtures" || name == "golden" ||
         name.rfind("build", 0) == 0 || (!name.empty() && name[0] == '.');
}

// Normalized generic path string (forward slashes) for category matching.
std::string Generic(const fs::path& p) { return p.generic_string(); }

bool UnderSrc(const std::string& path) {
  return path.rfind("src/", 0) == 0 || path.find("/src/") != std::string::npos;
}

bool UnderSrcIo(const std::string& path) {
  return path.rfind("src/io/", 0) == 0 ||
         path.find("/src/io/") != std::string::npos;
}

bool UnderSrcCore(const std::string& path) {
  return path.rfind("src/core/", 0) == 0 ||
         path.find("/src/core/") != std::string::npos;
}

bool UnderSrcNn(const std::string& path) {
  return path.rfind("src/nn/", 0) == 0 ||
         path.find("/src/nn/") != std::string::npos;
}

bool RngExempt(const std::string& path) {
  const std::string suffix = "common/rng.h";
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: lead_lint [--lib] [--json] [--report-allows] "
               "[--list-rules] <file-or-dir>...\n");
  return 2;
}

// Minimal JSON string escaping for --json output.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

// An allow marker that suppressed nothing in this run: either the code it
// excused was fixed (the marker is stale) or the marker never matched a
// finding at all (a typo'd line). Both deserve removal.
struct DeadAllow {
  std::string file;
  int line;
  std::string rule;
};

}  // namespace

int main(int argc, char** argv) {
  bool force_lib = false;
  bool json_output = false;
  bool report_allows = false;
  std::vector<fs::path> inputs;
  for (int a = 1; a < argc; ++a) {
    std::string arg = argv[a];
    if (arg == "--lib") {
      force_lib = true;
    } else if (arg == "--json") {
      json_output = true;
    } else if (arg == "--report-allows") {
      report_allows = true;
    } else if (arg == "--list-rules") {
      for (const RuleInfo& r : kRules) {
        std::printf("%-17s %s\n", r.name, r.summary);
      }
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else {
      inputs.emplace_back(arg);
    }
  }
  if (inputs.empty()) return Usage();

  std::vector<fs::path> files;
  for (const fs::path& input : inputs) {
    std::error_code ec;
    if (fs::is_directory(input, ec)) {
      fs::recursive_directory_iterator it(input, ec), end;
      if (ec) {
        std::fprintf(stderr, "lead_lint: cannot read %s: %s\n",
                     input.string().c_str(), ec.message().c_str());
        return 2;
      }
      for (; it != end; ++it) {
        if (it->is_directory() && SkippedDirectory(it->path())) {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() && HasSourceExtension(it->path())) {
          files.push_back(it->path());
        }
      }
    } else if (fs::is_regular_file(input, ec)) {
      files.push_back(input);
    } else {
      std::fprintf(stderr, "lead_lint: no such file or directory: %s\n",
                   input.string().c_str());
      return 2;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  // Pass 1: lex everything and learn the Status-returning function names,
  // so pass 2 can flag dropped results of project APIs by name.
  std::vector<LexedFile> lexed(files.size());
  std::set<std::string> status_fns;
  for (size_t f = 0; f < files.size(); ++f) {
    std::ifstream in(files[f], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "lead_lint: cannot open %s\n",
                   files[f].string().c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    lexed[f] = Lex(buf.str());
    CollectStatusFunctions(lexed[f], &status_fns);
  }
  // `Ok` would make `status.Ok();`-style false positives too easy; the
  // factory itself is side-effect free and never worth flagging.
  status_fns.erase("Ok");

  std::vector<Violation> violations;
  std::vector<DeadAllow> dead_allows;
  std::set<std::string> unknown_allows;
  for (size_t f = 0; f < files.size(); ++f) {
    std::string path = Generic(files[f]);
    std::map<int, std::set<std::string>> used_allows;
    FileLinter linter(path, &lexed[f], force_lib || UnderSrc(path),
                      force_lib || UnderSrcIo(path),
                      force_lib || UnderSrcCore(path),
                      force_lib || UnderSrcNn(path), RngExempt(path),
                      &status_fns, &violations, &used_allows);
    linter.Run();
    for (const auto& [line, rules] : lexed[f].allowed) {
      for (const std::string& rule : rules) {
        if (!IsKnownRule(rule)) {
          unknown_allows.insert(path + ":" + std::to_string(line) + " '" +
                                rule + "'");
        } else if (report_allows) {
          auto it = used_allows.find(line);
          if (it == used_allows.end() || !it->second.count(rule)) {
            dead_allows.push_back({path, line, rule});
          }
        }
      }
    }
  }

  if (json_output) {
    std::printf("{\n  \"files\": %zu,\n  \"violations\": [", files.size());
    for (size_t v = 0; v < violations.size(); ++v) {
      std::printf(
          "%s\n    {\"file\": \"%s\", \"line\": %d, \"rule\": \"%s\", "
          "\"message\": \"%s\"}",
          v == 0 ? "" : ",", JsonEscape(violations[v].file).c_str(),
          violations[v].line, JsonEscape(violations[v].rule).c_str(),
          JsonEscape(violations[v].message).c_str());
    }
    std::printf("%s]", violations.empty() ? "" : "\n  ");
    if (report_allows) {
      std::printf(",\n  \"dead_allows\": [");
      for (size_t d = 0; d < dead_allows.size(); ++d) {
        std::printf(
            "%s\n    {\"file\": \"%s\", \"line\": %d, \"rule\": \"%s\"}",
            d == 0 ? "" : ",", JsonEscape(dead_allows[d].file).c_str(),
            dead_allows[d].line, JsonEscape(dead_allows[d].rule).c_str());
      }
      std::printf("%s]", dead_allows.empty() ? "" : "\n  ");
    }
    std::printf("\n}\n");
  } else {
    for (const Violation& v : violations) {
      std::printf("%s:%d %s %s\n", v.file.c_str(), v.line, v.rule.c_str(),
                  v.message.c_str());
    }
    for (const DeadAllow& d : dead_allows) {
      std::printf("%s:%d dead-allow allow(%s) suppresses nothing; remove "
                  "the stale marker\n",
                  d.file.c_str(), d.line, d.rule.c_str());
    }
  }
  for (const std::string& u : unknown_allows) {
    std::fprintf(stderr, "lead_lint: warning: unknown rule in allow(): %s\n",
                 u.c_str());
  }
  if (!violations.empty() || !dead_allows.empty()) {
    std::fprintf(stderr,
                 "lead_lint: %zu violation(s), %zu dead allow(s) in %zu "
                 "file(s)\n",
                 violations.size(), dead_allows.size(), files.size());
    return 1;
  }
  std::fprintf(stderr, "lead_lint: clean (%zu file(s))\n", files.size());
  return 0;
}
