// detlint phase 1: the per-file model.
//
// The lexical rules match regexes against a comment/string-stripped view
// of each line in isolation. The cross-TU passes (lock-order graphs,
// hot-path purity, accounting contracts — see passes.hpp) need structure:
// which class a line belongs to, which members that class declares, where
// function bodies begin and end, which locks a statement acquires while
// which others are held. This header defines that structure and the
// single-pass heuristic parser that builds it.
//
// The parser is deliberately NOT a compiler frontend. It is a brace/paren
// tracking scanner over the tokenized code view, with the same design goal
// as the lexical layer: trivial to build (C++17, no dependencies),
// fast enough to run as a ctest on every build, and predictable enough
// that its blind spots are documentable (DESIGN.md §5i). Known
// approximations, each pinned by a fixture test:
//   * type resolution is name-based: a member expression `s.mu` resolves
//     through the declared type of `s` when the declaration is visible in
//     the same file, else through a project-wide unique-member-name lookup;
//   * virtual dispatch is an analysis boundary: calls through a receiver
//     whose resolved class declares the method `virtual` are never
//     traversed by the lock pass;
//   * preprocessor lines (and their continuations) are skipped entirely.
#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "detlint.hpp"

namespace cdn::detlint {

// ---------------------------------------------------------------------------
// String helpers shared by the scanner and the passes.
// ---------------------------------------------------------------------------

bool is_ident_char(char c);
std::string trim(const std::string& s);
/// True when `w` occurs in `s` as a whole identifier.
bool contains_word(const std::string& s, const std::string& w);
/// Walks backward from `pos` (exclusive) over a receiver expression chain:
/// identifiers joined by `.`, `->`, `::` and [...] index suffixes. Returns
/// the chain text ("s.cache", "shards_[i]->mu") or "".
std::string receiver_chain_before(const std::string& s, std::size_t pos);

// ---------------------------------------------------------------------------
// Tokenizer: the code view.
// ---------------------------------------------------------------------------

/// Line-preserving views of one translation unit. `code[i]` is `raw[i]`
/// with comments, string/char literals, and raw-string bodies blanked to
/// spaces (lengths preserved, so columns and line numbers stay aligned).
/// Handles: block comments spanning lines (non-nesting, as in C++), raw
/// strings `R"delim(...)delim"` spanning lines (including `u8R`/`LR`/...
/// prefixes), `//` comments continued by a trailing backslash, escape
/// sequences in ordinary literals, and digit separators (`1'000'000` is
/// not a character literal).
struct CodeView {
  std::vector<std::string> raw;
  std::vector<std::string> code;
};

CodeView build_code_view(const std::string& text);

/// Suppressions parsed from the raw text. The one grammar is
/// `// detlint:allow(<rule-id>[, <rule-id>...], <reason>)`: leading
/// comma-separated rule ids, then a reason that runs to the last `)` on the
/// line. A suppression covers its own line and the line directly below. One
/// whose first id is not a rule, or whose reason is empty, suppresses
/// nothing and is recorded in `malformed` instead.
struct Suppressions {
  std::vector<std::set<Rule>> allowed;                  ///< per line
  std::vector<std::pair<int, std::string>> malformed;  ///< (line, problem)
};

Suppressions parse_suppressions(const std::vector<std::string>& raw);

// ---------------------------------------------------------------------------
// Structure: classes, members, functions, lock/call sites.
// ---------------------------------------------------------------------------

struct Member {
  std::string name;
  std::string type;  ///< declared type text as written (template args kept)
  int line = 0;      ///< 1-based declaration line
};

/// One lock acquisition inside a function body.
struct LockSite {
  std::string expr;  ///< mutex expression as written (e.g. "mu_", "s.mu")
  int line = 0;
  std::vector<std::string> held;  ///< exprs already held at this site
};

/// One call site inside a function body.
struct CallSite {
  std::string name;      ///< callee name (unqualified)
  std::string qualifier; ///< "Class" for Class::name(...) calls, else ""
  std::string receiver;  ///< receiver token for x.name(...) / x->name(...)
  int line = 0;
  std::vector<std::string> held;  ///< mutex exprs held at this site
};

struct Function {
  std::string name;        ///< unqualified ("access_batch", "operator[]")
  std::string qual_class;  ///< enclosing or declarator class ("ShardedCache")
  int head_line = 0;       ///< line the signature's `{` closes on
  int end_line = 0;        ///< line of the closing `}`
  bool hot = false;        ///< CDN_HOT in the signature
  std::vector<std::string> entry_locks;  ///< CDN_REQUIRES/CDN_ACQUIRE args
  std::vector<LockSite> locks;
  std::vector<CallSite> calls;
  std::map<std::string, std::string> locals;  ///< name -> stripped type
};

/// A method *declaration* inside a class body (no body in this TU).
struct MethodDecl {
  std::string name;
  int line = 0;
  bool is_virtual = false;  ///< declared virtual / override / final
  bool hot = false;
  std::vector<std::string> entry_locks;  ///< CDN_REQUIRES on the declaration
};

struct Class {
  std::string name;  ///< unqualified ("Shard")
  std::string qual;  ///< nesting-qualified ("ShardedCache::Shard")
  int begin_line = 0;
  int end_line = 0;
  std::vector<Member> members;
  std::vector<MethodDecl> method_decls;
};

/// A `// detlint:hot-begin` .. `// detlint:hot-end` comment region, for
/// hot code in free functions (the replay loop) where no declaration can
/// carry the CDN_HOT marker.
struct HotRegion {
  int begin_line = 0;  ///< line of the hot-begin marker
  int end_line = 0;    ///< line of the hot-end marker (or last line)
};

struct FileModel {
  std::string path;
  CodeView view;
  std::vector<std::set<Rule>> allowed;  ///< per-line suppressions
  std::vector<Class> classes;
  std::vector<Function> functions;
  std::vector<HotRegion> hot_regions;
  std::map<std::string, std::string> aliases;  ///< using X = Y; / typedef
};

FileModel build_file_model(const std::string& rel_path,
                           const std::string& text);

// ---------------------------------------------------------------------------
// The merged project model (input to the phase-2 passes).
// ---------------------------------------------------------------------------

struct ProjectModel {
  std::vector<FileModel> files;

  // Merged lookup tables, built by finalize():
  /// unqualified class name -> (file index, class index); names declared in
  /// more than one file/class map to all occurrences.
  std::multimap<std::string, std::pair<std::size_t, std::size_t>> classes;
  /// unqualified class names that define or declare metadata_bytes().
  std::set<std::string> accounting_classes;
  /// mutex member name -> set of owning qualified class names ("Ns::C").
  std::map<std::string, std::set<std::string>> mutex_members;
  /// merged alias map (using X = Y) across all files.
  std::map<std::string, std::string> aliases;

  void add(FileModel fm);
  void finalize();

  /// Resolves a type name to a known class: strips qualifiers, template
  /// arguments, pointers/references, smart-pointer wrappers, and follows
  /// the alias map. Returns the unqualified class name or "".
  [[nodiscard]] std::string resolve_class(const std::string& type) const;
  [[nodiscard]] const Class* find_class(const std::string& unqual) const;
};

/// True when a type text names one of the dynamically-sized containers the
/// accounting pass charges for (std:: containers, FlatMap, and any project
/// class that itself participates in accounting).
bool is_container_type(const std::string& type);

/// Strips const/mutable/static/etc. qualifiers, template argument lists,
/// and reference/pointer sigils from a declared type, leaving the head
/// type name ("std::vector", "FlatMap", "Cache").
std::string strip_type(const std::string& type);

}  // namespace cdn::detlint
