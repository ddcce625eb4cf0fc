// pcube_lint_scan: the driver of the pcube-lint static checks
// (DESIGN.md §16).
//
// The `lint` CI phase enforces four architecture invariants with this
// binary on any toolchain: a self-contained, comment/string-aware lexical
// analyzer. It is deliberately conservative —
// everything it cannot prove benign it reports, and every report can be
// silenced only by an explicit, reasoned pragma comment, so the escape
// hatch is itself greppable documentation.
//
// Checks (see DESIGN.md §16):
//   pcube-mutation-entry
//       Direct calls to the raw structure mutators (PCube::ApplyChanges,
//       PCube::Rebuild, RStarTree::Insert/Delete, TableStore::Append)
//       outside WriteApplier (src/workbench/write_path.cc), the mutators'
//       own defining files, or code tagged
//       `// pcube-lint: allow-mutation(<reason>)`. Workbench::Apply is
//       the only legal mutation entry point (DESIGN.md §15) — any other
//       path bypasses the WAL, the epoch stamping and the structure lock.
//   pcube-wire-no-abort
//       Abort-family calls (PCUBE_CHECK*, CHECK*, DCHECK*, assert, abort)
//       in wire-facing code (default: any file under src/server/). Wire
//       bytes are attacker-controlled; reaching a process abort from them
//       is a remote crash (DESIGN.md §14). Locally-produced values may be
//       checked with `// pcube-lint: trusted(<reason>)`.
//   pcube-guarded-by-completeness
//       Non-const, non-static data members of any class that owns a
//       Mutex/SharedMutex member must carry GUARDED_BY/PT_GUARDED_BY or an
//       explicit `// pcube-lint: lock-free(<reason>)` (single member) /
//       `// pcube-lint: begin-lock-free(<reason>)` ... `end-lock-free`
//       (member block) annotation. Members whose type is itself a
//       synchronization primitive (Mutex, SharedMutex, CondVar, atomics)
//       and const-qualified declarations are exempt.
//   pcube-ignore-error-rationale
//       `.IgnoreError()` without a rationale comment on the same or the
//       immediately preceding line. The discard stays sanctioned, but the
//       *why* must sit next to it.
//
// Known lexical limitations: receiver types are resolved only from
// declarations in the scanned file and its paired header (foo.cc <->
// foo.h), so an `auto` receiver of a raw mutator is not flagged;
// reachability of an abort from a decoder is approximated by file path.
// Fixture coverage: tests/lint_fixtures/ + lint_fixture_test.
//
// Exit status: 0 clean, 1 diagnostics reported, 2 usage/IO error.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

struct Diagnostic {
  std::string file;
  int line = 0;
  int col = 0;
  std::string check;  // "pcube-mutation-entry", ...
  std::string message;
};

struct Options {
  std::set<std::string> checks;  // enabled checks, empty = all
  std::vector<std::string> wire_paths{"src/server/"};
  bool quiet = false;
};

bool CheckEnabled(const Options& opts, const std::string& name) {
  return opts.checks.empty() || opts.checks.count(name) > 0;
}

// ---------------------------------------------------------------------------
// Source model: raw text, comment-derived line facts, masked text, tokens
// ---------------------------------------------------------------------------

// Facts harvested from one line's comments before masking. Marker comments
// (`expect-lint:`, used by the fixture corpus) are invisible to every
// check so a fixture's expectations cannot silence the violation they mark.
struct LineFacts {
  bool has_rationale = false;       // any non-marker, non-pragma comment
  bool allow_mutation = false;      // pcube-lint: allow-mutation(...)
  bool allow_mutation_file = false; // pcube-lint: allow-mutation-file(...)
  bool trusted = false;             // pcube-lint: trusted(...)
  bool lock_free = false;           // pcube-lint: lock-free(...)
  bool begin_lock_free = false;     // pcube-lint: begin-lock-free(...)
  bool end_lock_free = false;       // pcube-lint: end-lock-free
};

struct Token {
  std::string text;
  int line = 0;  // 1-based
  int col = 0;   // 1-based
};

struct SourceFile {
  std::string path;
  std::string raw;
  std::string masked;            // comments/strings/preprocessor -> spaces
  std::vector<LineFacts> lines;  // index 0 unused; [1..n]
  std::vector<Token> tokens;
  bool file_allows_mutation = false;
};

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

// Classifies one comment's text (without the // or /* */ fence) into the
// line-fact flags of every line the comment touches.
void ClassifyComment(const std::string& body, int first_line, int last_line,
                     std::vector<LineFacts>* lines) {
  auto mark = [&](auto field) {
    for (int l = first_line; l <= last_line && l < (int)lines->size(); ++l) {
      (*lines)[l].*field = true;
    }
  };
  if (body.find("expect-lint:") != std::string::npos) {
    return;  // fixture marker: invisible to all checks
  }
  const size_t tag = body.find("pcube-lint:");
  if (tag != std::string::npos) {
    const std::string rest = body.substr(tag + std::strlen("pcube-lint:"));
    if (rest.find("allow-mutation-file") != std::string::npos) {
      mark(&LineFacts::allow_mutation_file);
    } else if (rest.find("allow-mutation") != std::string::npos) {
      mark(&LineFacts::allow_mutation);
    } else if (rest.find("trusted") != std::string::npos) {
      mark(&LineFacts::trusted);
    } else if (rest.find("begin-lock-free") != std::string::npos) {
      mark(&LineFacts::begin_lock_free);
    } else if (rest.find("end-lock-free") != std::string::npos) {
      mark(&LineFacts::end_lock_free);
    } else if (rest.find("lock-free") != std::string::npos) {
      mark(&LineFacts::lock_free);
    } else {
      mark(&LineFacts::has_rationale);  // unknown tag: plain comment
    }
    return;
  }
  // A rationale must say something: pure decoration (`////`, `---`) or an
  // empty `//` does not count.
  bool has_word = false;
  for (char c : body) {
    if (std::isalnum(static_cast<unsigned char>(c))) { has_word = true; break; }
  }
  if (has_word) mark(&LineFacts::has_rationale);
}

// One pass over the raw text: strips comments, string/char literals and
// preprocessor directives to spaces (newlines preserved, so offsets map to
// identical line/col), while harvesting per-line comment facts.
void MaskAndHarvest(SourceFile* f) {
  const std::string& s = f->raw;
  std::string out(s);
  int nlines = 1 + (int)std::count(s.begin(), s.end(), '\n');
  f->lines.assign(nlines + 2, LineFacts{});

  enum State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  State st = kCode;
  int line = 1;
  std::string comment_body;
  int comment_first_line = 0;
  std::string raw_delim;  // for R"delim( ... )delim"
  bool line_is_preproc = false;   // current logical line starts with '#'
  bool line_has_code = false;     // saw a non-space code char this line

  auto end_comment = [&](int last_line) {
    ClassifyComment(comment_body, comment_first_line, last_line, &f->lines);
    comment_body.clear();
  };

  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    char next = i + 1 < s.size() ? s[i + 1] : '\0';
    switch (st) {
      case kCode:
        if (c == '/' && next == '/') {
          st = kLineComment;
          comment_first_line = line;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          st = kBlockComment;
          comment_first_line = line;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !(std::isalnum((unsigned char)s[i - 1]) ||
                                s[i - 1] == '_'))) {
          // Raw string literal: R"delim( ... )delim"
          size_t p = i + 2;
          raw_delim.clear();
          while (p < s.size() && s[p] != '(') raw_delim += s[p++];
          st = kRawString;
          for (size_t k = i; k <= p && k < s.size(); ++k) {
            if (s[k] != '\n') out[k] = ' ';
          }
          i = p;
        } else if (c == '"') {
          st = kString;
          out[i] = ' ';
        } else if (c == '\'') {
          st = kChar;
          out[i] = ' ';
        } else if (c == '#' && !line_has_code) {
          line_is_preproc = true;
          out[i] = ' ';
        } else if (line_is_preproc) {
          if (c == '\\' && next == '\n') {
            out[i] = ' ';  // continuation: next line stays preprocessor
            ++i;
            ++line;
          } else if (c != '\n') {
            out[i] = ' ';
          }
        }
        if (st == kCode && !line_is_preproc && !std::isspace((unsigned char)c)) {
          line_has_code = true;
        }
        break;
      case kLineComment:
        if (c == '\n') {
          st = kCode;
          end_comment(line);
        } else {
          comment_body += c;
          out[i] = ' ';
        }
        break;
      case kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = out[i + 1] = ' ';
          ++i;
          st = kCode;
          end_comment(line);
        } else {
          if (c != '\n') {
            comment_body += c;
            out[i] = ' ';
          } else {
            comment_body += '\n';
          }
        }
        break;
      case kString:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n' && i + 1 < s.size()) {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '"') {
          out[i] = ' ';
          st = kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n' && i + 1 < s.size()) {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '\'') {
          out[i] = ' ';
          st = kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case kRawString: {
        const std::string close = ")" + raw_delim + "\"";
        if (c == ')' && s.compare(i, close.size(), close) == 0) {
          for (size_t k = i; k < i + close.size() && k < s.size(); ++k) {
            if (s[k] != '\n') out[k] = ' ';
          }
          i += close.size() - 1;
          st = kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      }
    }
    if (s[i] == '\n') {
      ++line;
      line_is_preproc = false;
      line_has_code = false;
    }
  }
  if (st == kLineComment || st == kBlockComment) end_comment(line);
  f->masked = std::move(out);
  for (const LineFacts& lf : f->lines) {
    if (lf.allow_mutation_file) {
      f->file_allows_mutation = true;
      break;
    }
  }
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

void Tokenize(SourceFile* f) {
  const std::string& s = f->masked;
  int line = 1, col = 1;
  for (size_t i = 0; i < s.size();) {
    char c = s[i];
    if (c == '\n') {
      ++line;
      col = 1;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++col;
      ++i;
      continue;
    }
    Token t;
    t.line = line;
    t.col = col;
    if (IsIdentChar(c)) {
      size_t j = i;
      while (j < s.size() && IsIdentChar(s[j])) ++j;
      t.text = s.substr(i, j - i);
      col += (int)(j - i);
      i = j;
    } else if (c == ':' && i + 1 < s.size() && s[i + 1] == ':') {
      t.text = "::";
      col += 2;
      i += 2;
    } else {
      t.text = std::string(1, c);
      ++col;
      ++i;
    }
    f->tokens.push_back(std::move(t));
  }
}

const LineFacts& FactsFor(const SourceFile& f, int line) {
  static const LineFacts kEmpty;
  if (line < 1 || line >= (int)f.lines.size()) return kEmpty;
  return f.lines[line];
}

bool IsCommentBearing(const LineFacts& lf) {
  return lf.has_rationale || lf.allow_mutation || lf.allow_mutation_file ||
         lf.trusted || lf.lock_free || lf.begin_lock_free || lf.end_lock_free;
}

// A pragma applies on the flagged line itself or anywhere in the block of
// comment-bearing lines immediately above it (clang-format may rewrap a
// long pragma comment across lines, and the reason clause often needs
// more than one line).
bool PragmaNearby(const SourceFile& f, int line, bool LineFacts::*field) {
  if (FactsFor(f, line).*field) return true;
  for (int l = line - 1; l >= 1 && l >= line - 6; --l) {
    const LineFacts& lf = FactsFor(f, l);
    if (!IsCommentBearing(lf)) break;
    if (lf.*field) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// pcube-mutation-entry
// ---------------------------------------------------------------------------

// Files allowed to call the raw mutators: the single sanctioned gateway
// (WriteApplier) and each mutator's own defining unit (internal recursion,
// bulk load, the PCube <-> tree maintenance protocol).
const char* kMutationAllowedPaths[] = {
    "src/workbench/write_path.cc",
    "src/rtree/",               // RStarTree implementation + helpers
    "src/core/pcube.",          // PCube::ApplyChanges/Rebuild internals
    "src/storage/table_store.", // TableStore::Append implementation
};

bool PathContains(const std::string& path, const char* needle) {
  return path.find(needle) != std::string::npos;
}

bool MutationPathAllowed(const std::string& path) {
  for (const char* p : kMutationAllowedPaths) {
    if (PathContains(path, p)) return true;
  }
  return false;
}

// Guarded types and their mutator method names.
const std::map<std::string, std::set<std::string>>& MutatorMethods() {
  static const std::map<std::string, std::set<std::string>> kMethods = {
      {"RStarTree", {"Insert", "Delete"}},
      {"TableStore", {"Append"}},
      {"PCube", {"ApplyChanges", "Rebuild"}},
  };
  return kMethods;
}

// Methods unique enough to flag by bare name, regardless of receiver type.
const std::set<std::string>& UniqueMutatorNames() {
  static const std::set<std::string> kNames = {"ApplyChanges", "Rebuild"};
  return kNames;
}

// Collects identifiers declared with a guarded type in `f`:
//   RStarTree t;   RStarTree* t;   RStarTree& t (param);
//   std::unique_ptr<RStarTree> t;   Result<TableStore> t;
// Maps receiver name -> type name.
void CollectTypedReceivers(const SourceFile& f,
                           std::map<std::string, std::string>* receivers) {
  const auto& methods = MutatorMethods();
  const auto& toks = f.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    auto it = methods.find(toks[i].text);
    if (it == methods.end()) continue;
    size_t j = i + 1;
    // Skip declarator decoration and template closers.
    while (j < toks.size() &&
           (toks[j].text == "*" || toks[j].text == "&" ||
            toks[j].text == ">" || toks[j].text == "const")) {
      ++j;
    }
    if (j + 1 >= toks.size()) continue;
    const std::string& name = toks[j].text;
    if (name.empty() || !(std::isalpha((unsigned char)name[0]) || name[0] == '_'))
      continue;
    const std::string& after = toks[j + 1].text;
    if (after == ";" || after == "=" || after == "{" || after == "," ||
        after == ")") {
      (*receivers)[name] = it->first;
    }
  }
}

void CheckMutationEntry(const SourceFile& f,
                        const std::map<std::string, std::string>& receivers,
                        std::vector<Diagnostic>* diags) {
  if (MutationPathAllowed(f.path) || f.file_allows_mutation) return;
  const auto& toks = f.tokens;
  const auto& methods = MutatorMethods();
  auto allowed_here = [&](int line) {
    return PragmaNearby(f, line, &LineFacts::allow_mutation);
  };
  auto report = [&](const Token& t, const std::string& type,
                    const std::string& method) {
    if (allowed_here(t.line)) return;
    Diagnostic d;
    d.file = f.path;
    d.line = t.line;
    d.col = t.col;
    d.check = "pcube-mutation-entry";
    d.message = "direct call to " + type + "::" + method +
                " bypasses Workbench::Apply (the only legal mutation "
                "entry point, DESIGN.md §15); route the write through a "
                "WriteBatch or tag it `// pcube-lint: allow-mutation(<why>)`";
    diags->push_back(std::move(d));
  };
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    const std::string& text = toks[i].text;
    const std::string& next = toks[i + 1].text;
    // Bare unique names: `x.ApplyChanges(`, `cube->Rebuild(`, `Rebuild(`.
    if (UniqueMutatorNames().count(text) && next == "(") {
      // Skip declarations/definitions: preceded by a type-ish token rather
      // than a member-access / start-of-expression context. Qualified
      // calls (`PCube::Rebuild(`) are handled by the branch below.
      if (i > 0) {
        const std::string& prev = toks[i - 1].text;
        if (prev == "::") continue;
        if (IsIdentChar(prev[0]) && prev != "return")
          continue;  // `Status Rebuild(` — declaration, not a call
      }
      report(toks[i], "PCube", text);
      continue;
    }
    // Qualified calls: `RStarTree::Insert(...)` on any expression.
    if (methods.count(text) && next == "::" && i + 3 < toks.size()) {
      const std::string& method = toks[i + 2].text;
      if (methods.at(text).count(method) && toks[i + 3].text == "(") {
        report(toks[i], text, method);
        continue;
      }
    }
    // Typed receivers: `recv.Insert(`, `recv->Insert(`.
    if ((text == "." || (text == "-" && next == ">")) && i > 0) {
      size_t m = text == "." ? i + 1 : i + 2;  // method token index
      if (m + 1 >= toks.size() || toks[m + 1].text != "(") continue;
      if (UniqueMutatorNames().count(toks[m].text)) continue;  // done above
      const std::string& recv = toks[i - 1].text;
      auto r = receivers.find(recv);
      if (r == receivers.end()) continue;
      const auto& allowed = methods.at(r->second);
      if (allowed.count(toks[m].text)) {
        report(toks[m], r->second, toks[m].text);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// pcube-wire-no-abort
// ---------------------------------------------------------------------------

bool IsAbortFamily(const std::string& t) {
  if (t == "abort" || t == "assert") return true;
  if (t.rfind("PCUBE_CHECK", 0) == 0 || t.rfind("PCUBE_DCHECK", 0) == 0)
    return true;
  if (t == "CHECK" || t.rfind("CHECK_", 0) == 0) return true;
  if (t == "DCHECK" || t.rfind("DCHECK_", 0) == 0) return true;
  return false;
}

void CheckWireNoAbort(const SourceFile& f, const Options& opts,
                      std::vector<Diagnostic>* diags) {
  bool in_scope = false;
  for (const std::string& p : opts.wire_paths) {
    if (PathContains(f.path, p.c_str())) {
      in_scope = true;
      break;
    }
  }
  if (!in_scope) return;
  const auto& toks = f.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!IsAbortFamily(toks[i].text) || toks[i + 1].text != "(") continue;
    if (PragmaNearby(f, toks[i].line, &LineFacts::trusted)) continue;
    Diagnostic d;
    d.file = f.path;
    d.line = toks[i].line;
    d.col = toks[i].col;
    d.check = "pcube-wire-no-abort";
    d.message = "abort-family call `" + toks[i].text +
                "` in wire-facing code: wire-derived bytes must never reach "
                "a process abort (DESIGN.md §14); return a Status, or tag a "
                "locally-produced value `// pcube-lint: trusted(<why>)`";
    diags->push_back(std::move(d));
  }
}

// ---------------------------------------------------------------------------
// pcube-guarded-by-completeness
// ---------------------------------------------------------------------------

// Types that are themselves synchronization primitives (or handles to
// internally synchronized state) and therefore need no GUARDED_BY.
bool IsSyncPrimitiveSegment(const std::vector<const Token*>& seg) {
  for (const Token* t : seg) {
    if (t->text == "Mutex" || t->text == "SharedMutex" ||
        t->text == "CondVar" || t->text == "atomic" ||
        t->text.rfind("atomic_", 0) == 0) {
      return true;
    }
  }
  return false;
}

struct MemberSegment {
  std::vector<const Token*> toks;
  int first_line = 0;
  int last_line = 0;
};

struct ClassFrame {
  bool is_class = false;      // class/struct body (vs function/namespace)
  std::string name;
  std::string mutex_member;   // first Mutex/SharedMutex member, if any
  std::vector<MemberSegment> candidates;  // unguarded members, pending
};

void CheckGuardedByCompleteness(const SourceFile& f,
                                std::vector<Diagnostic>* diags) {
  const auto& toks = f.tokens;
  std::vector<ClassFrame> stack;
  MemberSegment seg;
  // Region pragmas live on comment-only lines (no tokens), so the active
  // region is precomputed per line, not discovered while walking tokens.
  std::vector<bool> in_region(f.lines.size(), false);
  {
    bool active = false;
    for (size_t l = 1; l < f.lines.size(); ++l) {
      if (f.lines[l].begin_lock_free) active = true;
      in_region[l] = active;
      if (f.lines[l].end_lock_free) active = false;
    }
  }

  auto seg_reset = [&]() { seg = MemberSegment{}; };
  auto seg_push = [&](const Token& t) {
    if (seg.toks.empty()) seg.first_line = t.line;
    seg.last_line = t.line;
    seg.toks.push_back(&t);
  };

  auto finish_segment = [&](bool ended_by_semicolon) {
    if (stack.empty() || !stack.back().is_class || !ended_by_semicolon) {
      seg_reset();
      return;
    }
    MemberSegment s = seg;
    seg_reset();
    if (s.toks.empty()) return;
    // Skip non-data-member segments.
    static const std::set<std::string> kSkipKeywords = {
        "using", "typedef", "friend", "static", "constexpr", "enum",
        "operator", "template", "public", "private", "protected"};
    bool has_paren = false, has_const = false, guarded = false;
    for (const Token* t : s.toks) {
      if (kSkipKeywords.count(t->text)) return;
      if (t->text == "(") has_paren = true;
      if (t->text == "const") has_const = true;
      if (t->text == "GUARDED_BY" || t->text == "PT_GUARDED_BY") guarded = true;
    }
    if (s.toks.size() < 2) return;  // `};` fragments etc.
    ClassFrame& frame = stack.back();
    // Mutex ownership detection (and its member name, for the message).
    // Only a by-value Mutex/SharedMutex member makes the class lock-owning:
    // `Mutex() = default;` is a constructor (has parens) and `Mutex* const
    // mu_;` in the RAII guards borrows a lock it does not own.
    size_t type_idx = (s.toks[0]->text == "mutable") ? 1 : 0;
    bool by_value_decl =
        !has_paren && s.toks.size() > type_idx + 1 &&
        s.toks[type_idx + 1]->text != "*" && s.toks[type_idx + 1]->text != "&";
    if (by_value_decl && (s.toks[type_idx]->text == "Mutex" ||
                          s.toks[type_idx]->text == "SharedMutex")) {
      if (frame.mutex_member.empty()) {
        for (const Token* t : s.toks) {
          if (t->text != "Mutex" && t->text != "SharedMutex" &&
              t->text != "mutable" && IsIdentChar(t->text[0])) {
            frame.mutex_member = t->text;
            break;
          }
        }
        if (frame.mutex_member.empty()) frame.mutex_member = "<mutex>";
      }
      return;
    }
    if (has_paren || has_const || guarded) return;
    if (IsSyncPrimitiveSegment(s.toks)) return;
    // Pragma escapes: on the declaration's lines, in the comment block
    // above it, or inside an active begin/end-lock-free region.
    bool exempt = s.first_line < (int)in_region.size() &&
                  in_region[s.first_line];
    for (int l = s.first_line; l <= s.last_line && !exempt; ++l) {
      exempt = FactsFor(f, l).lock_free;
    }
    if (!exempt) exempt = PragmaNearby(f, s.first_line, &LineFacts::lock_free);
    if (exempt) return;
    frame.candidates.push_back(std::move(s));
  };

  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.text == "class" || t.text == "struct") {
      // `enum class`, `template <class T>`, forward declarations are not
      // class bodies. Scan ahead for `{` before `;`/`>`/`,`.
      if (i > 0 && toks[i - 1].text == "enum") continue;
      // The class name is the LAST identifier in the class-head before the
      // base clause or body: attribute macros (`class CAPABILITY("mutex")
      // Mutex`, `class SCOPED_CAPABILITY MutexLock`) precede it.
      std::string name;
      bool body = false;
      bool in_head = true;
      for (size_t j = i + 1; j < toks.size() && j < i + 64; ++j) {
        const std::string& x = toks[j].text;
        if (x == ":") in_head = false;  // base clause; name is fixed now
        if (in_head && IsIdentChar(x[0]) && x != "alignas" && x != "final") {
          name = x;
        }
        if (x == "{") {
          body = true;
          break;
        }
        if (x == ";" || x == ">" || x == ",") break;
      }
      if (!body) continue;
      // Defer pushing until we meet that `{`; mark via pending name.
      // Simplest: push now and swallow tokens until `{` below.
      ClassFrame frame;
      frame.is_class = true;
      frame.name = name.empty() ? "<anonymous>" : name;
      // Advance i to the opening brace.
      while (i + 1 < toks.size() && toks[i + 1].text != "{") ++i;
      ++i;  // now at `{`
      stack.push_back(std::move(frame));
      seg_reset();
      continue;
    }
    if (t.text == "{") {
      if (!stack.empty() && stack.back().is_class && !seg.toks.empty()) {
        bool has_paren = false;
        for (const Token* p : seg.toks) {
          if (p->text == "(") { has_paren = true; break; }
        }
        // Brace initializer (`x{0};`): skip the braces, keep the segment.
        // Function body / nested aggregate: consume and drop the segment.
        int depth = 1;
        size_t j = i + 1;
        for (; j < toks.size() && depth > 0; ++j) {
          if (toks[j].text == "{") ++depth;
          if (toks[j].text == "}") --depth;
        }
        i = j - 1;
        if (has_paren) {
          seg_reset();  // function definition
          // A definition needs no trailing `;`.
        }
        continue;
      }
      // Non-class scope (function at namespace level, namespace, etc.).
      ClassFrame frame;  // is_class = false
      stack.push_back(frame);
      continue;
    }
    if (t.text == "}") {
      if (!stack.empty()) {
        ClassFrame frame = std::move(stack.back());
        stack.pop_back();
        if (frame.is_class && !frame.mutex_member.empty()) {
          for (const MemberSegment& m : frame.candidates) {
            // Member name: last identifier before `;`/`=`/`{`/`[`.
            std::string member;
            for (const Token* p : m.toks) {
              if (p->text == "=" || p->text == "{" || p->text == "[") break;
              if (IsIdentChar(p->text[0])) member = p->text;
            }
            Diagnostic d;
            d.file = f.path;
            d.line = m.first_line;
            d.col = m.toks.front()->col;
            d.check = "pcube-guarded-by-completeness";
            d.message = "member `" + member + "` of lock-owning class `" +
                        frame.name + "` (owns `" + frame.mutex_member +
                        "`) has no GUARDED_BY/PT_GUARDED_BY and no "
                        "`// pcube-lint: lock-free(<why>)` annotation";
            diags->push_back(std::move(d));
          }
        }
      }
      seg_reset();
      continue;
    }
    if (t.text == ";") {
      finish_segment(true);
      continue;
    }
    if (t.text == ":" && !seg.toks.empty() &&
        (seg.toks.back()->text == "public" ||
         seg.toks.back()->text == "private" ||
         seg.toks.back()->text == "protected")) {
      seg_reset();  // access label
      continue;
    }
    if (!stack.empty() && stack.back().is_class) seg_push(t);
  }
}

// ---------------------------------------------------------------------------
// pcube-ignore-error-rationale
// ---------------------------------------------------------------------------

void CheckIgnoreErrorRationale(const SourceFile& f,
                               std::vector<Diagnostic>* diags) {
  const auto& toks = f.tokens;
  for (size_t i = 1; i + 1 < toks.size(); ++i) {
    if (toks[i].text != "IgnoreError" || toks[i + 1].text != "(") continue;
    const std::string& prev = toks[i - 1].text;
    const bool member_call =
        prev == "." || (prev == ">" && i >= 2 && toks[i - 2].text == "-");
    if (!member_call) continue;  // the declaration in status.h
    // A rationale counts anywhere on the discarding statement (call chains
    // wrap across lines) or on the line above its first line.
    size_t stmt_begin = i;
    while (stmt_begin > 0) {
      const std::string& x = toks[stmt_begin - 1].text;
      if (x == ";" || x == "{" || x == "}") break;
      --stmt_begin;
    }
    bool has_rationale = false;
    for (int l = toks[stmt_begin].line - 1; l <= toks[i].line; ++l) {
      if (FactsFor(f, l).has_rationale) {
        has_rationale = true;
        break;
      }
    }
    if (has_rationale) continue;
    Diagnostic d;
    d.file = f.path;
    d.line = toks[i].line;
    d.col = toks[i].col;
    d.check = "pcube-ignore-error-rationale";
    d.message = "`.IgnoreError()` without a rationale comment on this or "
                "the preceding line; say why discarding the Status is safe";
    diags->push_back(std::move(d));
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

// foo.cc -> foo.h in the same directory (receiver typing only).
std::string PairedHeader(const std::string& path) {
  size_t dot = path.rfind('.');
  if (dot == std::string::npos) return "";
  std::string ext = path.substr(dot);
  if (ext != ".cc" && ext != ".cpp") return "";
  return path.substr(0, dot) + ".h";
}

int Run(const Options& opts, const std::vector<std::string>& files) {
  std::vector<Diagnostic> diags;
  int io_errors = 0;
  size_t scanned = 0;
  for (const std::string& path : files) {
    SourceFile f;
    f.path = path;
    if (!ReadFile(path, &f.raw)) {
      std::cerr << "pcube_lint_scan: cannot read " << path << "\n";
      ++io_errors;
      continue;
    }
    MaskAndHarvest(&f);
    Tokenize(&f);
    ++scanned;

    std::map<std::string, std::string> receivers;
    if (CheckEnabled(opts, "pcube-mutation-entry")) {
      CollectTypedReceivers(f, &receivers);
      const std::string header = PairedHeader(path);
      if (!header.empty()) {
        SourceFile h;
        h.path = header;
        if (ReadFile(header, &h.raw)) {
          MaskAndHarvest(&h);
          Tokenize(&h);
          CollectTypedReceivers(h, &receivers);
        }
      }
      CheckMutationEntry(f, receivers, &diags);
    }
    if (CheckEnabled(opts, "pcube-wire-no-abort")) {
      CheckWireNoAbort(f, opts, &diags);
    }
    if (CheckEnabled(opts, "pcube-guarded-by-completeness")) {
      CheckGuardedByCompleteness(f, &diags);
    }
    if (CheckEnabled(opts, "pcube-ignore-error-rationale")) {
      CheckIgnoreErrorRationale(f, &diags);
    }
  }
  // One report per (file, line, col, check): the qualified-name and
  // typed-receiver matchers can both recognize the same call, but they
  // anchor on the same token, so the column disambiguates genuine
  // distinct violations sharing a source line.
  std::set<std::string> seen;
  std::vector<Diagnostic> unique;
  for (Diagnostic& d : diags) {
    std::string key = d.file + ":" + std::to_string(d.line) + ":" +
                      std::to_string(d.col) + ":" + d.check;
    if (seen.insert(std::move(key)).second) unique.push_back(std::move(d));
  }
  diags = std::move(unique);
  for (const Diagnostic& d : diags) {
    std::cout << d.file << ":" << d.line << ":" << d.col << ": warning: "
              << d.message << " [" << d.check << "]\n";
  }
  if (!opts.quiet) {
    std::cerr << "pcube_lint_scan: " << diags.size() << " finding(s) over "
              << scanned << " file(s)\n";
  }
  if (io_errors) return 2;
  return diags.empty() ? 0 : 1;
}

void Usage() {
  std::cerr <<
      "usage: pcube_lint_scan [options] <file.cc|file.h>...\n"
      "  --checks=a,b      run only the named checks (default: all)\n"
      "  --wire-paths=p,q  path substrings treated as wire-facing scope\n"
      "                    (default: src/server/)\n"
      "  --list-checks     print check names and exit\n"
      "  --quiet           suppress the summary line\n";
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::vector<std::string> files;
  const std::vector<std::string> known_checks = {
      "pcube-mutation-entry", "pcube-wire-no-abort",
      "pcube-guarded-by-completeness", "pcube-ignore-error-rationale"};
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--list-checks") {
      for (const auto& c : known_checks) std::cout << c << "\n";
      return 0;
    } else if (arg == "--quiet") {
      opts.quiet = true;
    } else if (arg.rfind("--checks=", 0) == 0) {
      for (const std::string& c : SplitCommas(arg.substr(9))) {
        if (std::find(known_checks.begin(), known_checks.end(), c) ==
            known_checks.end()) {
          std::cerr << "pcube_lint_scan: unknown check '" << c << "'\n";
          return 2;
        }
        opts.checks.insert(c);
      }
    } else if (arg.rfind("--wire-paths=", 0) == 0) {
      opts.wire_paths = SplitCommas(arg.substr(13));
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "pcube_lint_scan: unknown option '" << arg << "'\n";
      Usage();
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    Usage();
    return 2;
  }
  return Run(opts, files);
}
