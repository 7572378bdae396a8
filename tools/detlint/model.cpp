#include "model.hpp"

#include <algorithm>
#include <cctype>
#include <regex>
#include <sstream>
#include <utility>

namespace cdn::detlint {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool contains_word(const std::string& s, const std::string& w) {
  std::size_t pos = 0;
  while ((pos = s.find(w, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(s[pos - 1]);
    const std::size_t end = pos + w.size();
    const bool right_ok = end >= s.size() || !is_ident_char(s[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

/// Walks backward from `pos` (exclusive) over a receiver expression chain:
/// identifiers joined by `.`, `->`, `::` and [...] index suffixes. Returns
/// the chain text ("s.cache", "shards_[i]->mu") or "".
std::string receiver_chain_before(const std::string& s, std::size_t pos) {
  std::size_t e = pos;
  while (e > 0 && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  std::size_t b = e;
  bool expect_ident = true;
  while (b > 0) {
    const char c = s[b - 1];
    if (expect_ident) {
      if (c == ']') {  // skip [...] back to the matching [
        int depth = 0;
        std::size_t j = b;
        while (j > 0) {
          --j;
          if (s[j] == ']') ++depth;
          if (s[j] == '[' && --depth == 0) break;
        }
        if (depth != 0) break;
        b = j;
        continue;
      }
      if (is_ident_char(c)) {
        while (b > 0 && is_ident_char(s[b - 1])) --b;
        expect_ident = false;
        continue;
      }
      break;
    }
    // After an identifier: accept a joining . / -> / :: and expect another.
    if (c == '.') {
      --b;
      expect_ident = true;
      continue;
    }
    if (c == '>' && b >= 2 && s[b - 2] == '-') {
      b -= 2;
      expect_ident = true;
      continue;
    }
    if (c == ':' && b >= 2 && s[b - 2] == ':') {
      b -= 2;
      expect_ident = true;
      continue;
    }
    break;
  }
  if (expect_ident) return "";  // dangling joiner; malformed
  return trim(s.substr(b, e - b));
}

namespace {

std::string collapse_ws(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  bool prev_space = false;
  for (const char c : s) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!prev_space && !out.empty()) out.push_back(' ');
      prev_space = true;
    } else {
      out.push_back(c);
      prev_space = false;
    }
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

CodeView build_code_view(const std::string& text) {
  CodeView view;
  {
    std::string cur;
    for (const char c : text) {
      if (c == '\n') {
        view.raw.push_back(cur);
        cur.clear();
      } else if (c != '\r') {
        cur.push_back(c);
      }
    }
    if (!cur.empty()) view.raw.push_back(std::move(cur));
  }

  enum class State { kCode, kBlockComment, kLineComment, kRawString };
  State state = State::kCode;
  std::string raw_close;  // ")delim\"" that terminates the raw string

  view.code.reserve(view.raw.size());
  for (const std::string& line : view.raw) {
    std::string code = line;
    std::size_t i = 0;
    // A // comment whose line ended in a backslash continues here.
    if (state == State::kLineComment) {
      const bool continues = !line.empty() && line.back() == '\\';
      for (char& c : code) c = ' ';
      if (!continues) state = State::kCode;
      view.code.push_back(std::move(code));
      continue;
    }
    while (i < code.size()) {
      if (state == State::kBlockComment) {
        // Block comments do not nest in C++: the first */ ends the comment
        // regardless of any /* seen inside it.
        if (code.compare(i, 2, "*/") == 0) {
          code[i] = ' ';
          code[i + 1] = ' ';
          i += 2;
          state = State::kCode;
        } else {
          code[i++] = ' ';
        }
        continue;
      }
      if (state == State::kRawString) {
        const std::size_t close = code.find(raw_close, i);
        if (close == std::string::npos) {
          for (std::size_t j = i; j < code.size(); ++j) code[j] = ' ';
          i = code.size();
        } else {
          for (std::size_t j = i; j < close + raw_close.size(); ++j) {
            code[j] = ' ';
          }
          i = close + raw_close.size();
          state = State::kCode;
        }
        continue;
      }
      const char c = code[i];
      if (c == '/' && i + 1 < code.size() && code[i + 1] == '/') {
        const bool continues = code.back() == '\\';
        for (std::size_t j = i; j < code.size(); ++j) code[j] = ' ';
        if (continues) state = State::kLineComment;
        break;
      }
      if (c == '/' && i + 1 < code.size() && code[i + 1] == '*') {
        code[i] = ' ';
        code[i + 1] = ' ';
        i += 2;
        state = State::kBlockComment;
        continue;
      }
      // Raw string: [u8|u|U|L] R"delim( ... )delim"
      if (c == 'R' && i + 1 < code.size() && code[i + 1] == '"') {
        const bool prefix_ok = [&] {
          std::size_t b = i;
          while (b > 0 && (code[b - 1] == 'u' || code[b - 1] == 'U' ||
                           code[b - 1] == 'L' || code[b - 1] == '8')) {
            --b;
          }
          return b == 0 || !is_ident_char(code[b - 1]);
        }();
        if (prefix_ok) {
          const std::size_t open = code.find('(', i + 2);
          if (open != std::string::npos) {
            const std::string delim = code.substr(i + 2, open - (i + 2));
            raw_close = ")" + delim + "\"";
            const std::size_t close = code.find(raw_close, open + 1);
            const std::size_t blank_end =
                close == std::string::npos ? code.size()
                                           : close + raw_close.size();
            for (std::size_t j = i; j < blank_end; ++j) code[j] = ' ';
            i = blank_end;
            if (close == std::string::npos) state = State::kRawString;
            continue;
          }
        }
      }
      if (c == '"' || c == '\'') {
        // Digit separator, not a char literal: 1'000'000.
        if (c == '\'' && i > 0 &&
            std::isdigit(static_cast<unsigned char>(code[i - 1])) &&
            i + 1 < code.size() && is_ident_char(code[i + 1])) {
          ++i;
          continue;
        }
        const char quote = c;
        std::size_t j = i + 1;
        while (j < code.size()) {
          if (code[j] == '\\' && j + 1 < code.size()) {
            code[j] = ' ';
            code[j + 1] = ' ';
            j += 2;
            continue;
          }
          if (code[j] == quote) break;
          code[j] = ' ';
          ++j;
        }
        i = (j < code.size()) ? j + 1 : j;
        continue;
      }
      ++i;
    }
    view.code.push_back(std::move(code));
  }
  return view;
}

Suppressions parse_suppressions(const std::vector<std::string>& raw) {
  static const std::string kMarker = "detlint:allow(";
  Suppressions out;
  out.allowed.resize(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const std::string& text = raw[i];
    const std::size_t at = text.find(kMarker);
    if (at == std::string::npos) continue;
    const int line = static_cast<int>(i) + 1;
    const std::size_t close = text.rfind(')');
    std::size_t pos = at + kMarker.size();
    if (close == std::string::npos || close < pos) {
      out.malformed.emplace_back(line, "has no closing ')'");
      continue;
    }
    // Rule ids up to the first token that is not one; the reason is that
    // token through the last ')'.
    std::set<Rule> rules;
    std::string first_token;
    while (true) {
      const std::size_t end = std::min(text.find(',', pos), close);
      const std::string token = trim(text.substr(pos, end - pos));
      const std::optional<Rule> rule = rule_from_id(token);
      if (!rule) {
        if (rules.empty()) first_token = token;
        break;
      }
      rules.insert(*rule);
      pos = end == close ? close : end + 1;
    }
    if (rules.empty()) {
      out.malformed.emplace_back(
          line, "names '" + first_token + "', which is not a rule id");
    } else if (trim(text.substr(pos, close - pos)).empty()) {
      out.malformed.emplace_back(line, "gives no reason");
    } else {
      out.allowed[i].insert(rules.begin(), rules.end());
      if (i + 1 < raw.size()) {
        out.allowed[i + 1].insert(rules.begin(), rules.end());
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Structure parser
// ---------------------------------------------------------------------------

namespace {

/// Strips CDN_* annotation macros and [[...]] attributes from a statement
/// or declarator head so name extraction sees only the declaration itself.
/// CDN_REQUIRES/CDN_ACQUIRE arguments must be captured *before* this runs.
std::string strip_annotations(std::string s) {
  static const std::regex kMacroCall(R"(\bCDN_[A-Z_]+\s*\([^)]*\))");
  static const std::regex kMacroBare(R"(\bCDN_[A-Z_]+\b)");
  static const std::regex kAttr(R"(\[\[[^\]]*\]\])");
  s = std::regex_replace(s, kMacroCall, " ");
  s = std::regex_replace(s, kAttr, " ");
  // CDN_HOT is semantically load-bearing for the model but syntactically
  // noise for name extraction; it is matched before this strip runs.
  s = std::regex_replace(s, kMacroBare, " ");
  return s;
}

std::vector<std::string> capture_requires(const std::string& head) {
  static const std::regex kReq(R"(\bCDN_REQUIRES\s*\(([^)]*)\))");
  std::vector<std::string> out;
  for (auto it = std::sregex_iterator(head.begin(), head.end(), kReq);
       it != std::sregex_iterator(); ++it) {
    std::stringstream ss((*it)[1].str());
    std::string arg;
    while (std::getline(ss, arg, ',')) {
      arg = trim(arg);
      if (!arg.empty()) out.push_back(arg);
    }
  }
  return out;
}

const std::set<std::string>& call_keyword_blocklist() {
  static const std::set<std::string> kw = {
      "if",      "for",      "while",    "switch",   "catch",
      "return",  "sizeof",   "alignof",  "decltype", "noexcept",
      "assert",  "defined",  "co_await", "co_return", "throw",
      "static_assert"};
  return kw;
}

struct ScopeFrame {
  enum Kind { kNamespace, kClass, kFunction, kBlock };
  Kind kind = kBlock;
  int class_index = -1;  ///< valid for kClass
  int func_index = -1;   ///< valid for kFunction
  int saved_paren = 0;   ///< paren depth restored when this frame pops
  /// For expression-level braces (brace-init, default args `= {}`): the
  /// interrupted statement, restored when the block closes so the
  /// declaration keeps parsing (`LrbCache(LrbParams p = {}, ...);`).
  std::vector<std::pair<int, std::string>> saved_stmt;
};

struct Parser {
  FileModel& fm;
  std::vector<ScopeFrame> scopes;
  int paren_depth = 0;
  /// Statement text accumulated since the last `{` `}` `;` at paren depth
  /// 0, as (line, text) segments so sites anchor to their real line.
  std::vector<std::pair<int, std::string>> stmt;
  /// Active lock acquisitions of the innermost function: (expr, scope
  /// depth at acquisition). Popped when their scope closes.
  std::vector<std::pair<std::string, std::size_t>> lock_stack;

  [[nodiscard]] int innermost_function() const {
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
      if (it->kind == ScopeFrame::kFunction) return it->func_index;
      if (it->kind == ScopeFrame::kClass) break;
    }
    return -1;
  }
  [[nodiscard]] int innermost_class() const {
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
      if (it->kind == ScopeFrame::kClass) return it->class_index;
    }
    return -1;
  }
  [[nodiscard]] bool directly_in_class() const {
    return !scopes.empty() && scopes.back().kind == ScopeFrame::kClass;
  }

  [[nodiscard]] std::string joined_stmt() const {
    std::string s;
    for (const auto& seg : stmt) {
      s += seg.second;
      s.push_back(' ');
    }
    return collapse_ws(s);
  }

  [[nodiscard]] std::vector<std::string> held_exprs() const {
    std::vector<std::string> held;
    const int fi = innermost_function();
    if (fi >= 0) {
      held = fm.functions[static_cast<std::size_t>(fi)].entry_locks;
    }
    for (const auto& l : lock_stack) held.push_back(l.first);
    return held;
  }

  // -- statement-level scans (inside function bodies) ----------------------

  void scan_segment_locks(Function& fn, int line, const std::string& seg) {
    static const std::regex kGuard(R"(\bMutexLock\s+\w+\s*\(\s*([^)]+?)\s*\))");
    static const std::regex kLockCall(R"(\.\s*(try_lock|lock|unlock)\s*\()");
    for (auto it = std::sregex_iterator(seg.begin(), seg.end(), kGuard);
         it != std::sregex_iterator(); ++it) {
      LockSite site;
      site.expr = trim((*it)[1].str());
      site.line = line;
      site.held = held_exprs();
      fn.locks.push_back(site);
      lock_stack.emplace_back(site.expr, scopes.size());
    }
    for (auto it = std::sregex_iterator(seg.begin(), seg.end(), kLockCall);
         it != std::sregex_iterator(); ++it) {
      const std::string op = (*it)[1].str();
      const std::string expr =
          receiver_chain_before(seg, static_cast<std::size_t>(it->position()));
      if (expr.empty()) continue;
      if (op == "unlock") {
        for (auto l = lock_stack.rbegin(); l != lock_stack.rend(); ++l) {
          if (l->first == expr) {
            lock_stack.erase(std::next(l).base());
            break;
          }
        }
        continue;
      }
      LockSite site;
      site.expr = expr;
      site.line = line;
      site.held = held_exprs();
      fn.locks.push_back(site);
      lock_stack.emplace_back(expr, scopes.size());
    }
  }

  void scan_segment_calls(Function& fn, int line, const std::string& seg) {
    static const std::regex kCall(R"(([A-Za-z_]\w*)\s*\()");
    for (auto it = std::sregex_iterator(seg.begin(), seg.end(), kCall);
         it != std::sregex_iterator(); ++it) {
      const std::string name = (*it)[1].str();
      if (call_keyword_blocklist().count(name) != 0) continue;
      if (name == "lock" || name == "try_lock" || name == "unlock") {
        continue;  // recorded as lock sites, not calls
      }
      std::size_t b = static_cast<std::size_t>(it->position());
      while (b > 0 && std::isspace(static_cast<unsigned char>(seg[b - 1]))) {
        --b;
      }
      CallSite site;
      site.name = name;
      site.line = line;
      if (b >= 1 && seg[b - 1] == '.') {
        site.receiver = receiver_chain_before(seg, b - 1);
        if (site.receiver.empty()) continue;
      } else if (b >= 2 && seg[b - 2] == '-' && seg[b - 1] == '>') {
        site.receiver = receiver_chain_before(seg, b - 2);
        if (site.receiver.empty()) continue;
      } else if (b >= 2 && seg[b - 2] == ':' && seg[b - 1] == ':') {
        std::string qual = receiver_chain_before(seg, b - 2);
        const std::size_t last = qual.rfind("::");
        site.qualifier = last == std::string::npos ? qual
                                                   : qual.substr(last + 2);
        if (site.qualifier.empty()) continue;
      } else if (b >= 1 && (is_ident_char(seg[b - 1]) || seg[b - 1] == '>' ||
                            seg[b - 1] == '&' || seg[b - 1] == '*' ||
                            seg[b - 1] == '~')) {
        // `Type name(...)`: a declaration, not a call. (Calls after a
        // keyword like `return` are re-admitted below.)
        std::size_t e = b;
        while (e > 0 && is_ident_char(seg[e - 1])) --e;
        const std::string prev = seg.substr(e, b - e);
        if (prev != "return" && prev != "else" && prev != "co_return") {
          continue;
        }
      }
      site.held = held_exprs();
      fn.calls.push_back(std::move(site));
    }
  }

  void scan_segment_locals(Function& fn, const std::string& seg) {
    // `Type name = ...` / `Type& name = ...` — enough to resolve receivers
    // like `Shard& s = *shards_[idx]`. `auto` stays unresolved by design.
    static const std::regex kLocal(
        R"((?:^|[;({]\s*|\bconst\s+)([A-Za-z_][\w:]*(?:<[^<>;=]*>)?)\s*[&*]?\s+([A-Za-z_]\w*)\s*=)");
    for (auto it = std::sregex_iterator(seg.begin(), seg.end(), kLocal);
         it != std::sregex_iterator(); ++it) {
      const std::string type = (*it)[1].str();
      const std::string name = (*it)[2].str();
      if (type == "auto" || type == "return") continue;
      if (fn.locals.find(name) == fn.locals.end()) {
        fn.locals[name] = strip_type(type);
      }
    }
  }

  void flush_statement_into_function() {
    const int fi = innermost_function();
    if (fi < 0) {
      scan_namespace_statement();
      return;
    }
    Function& fn = fm.functions[static_cast<std::size_t>(fi)];
    for (const auto& [line, seg] : stmt) {
      scan_segment_locks(fn, line, seg);
      scan_segment_calls(fn, line, seg);
      scan_segment_locals(fn, seg);
    }
  }

  // -- namespace/class scope statements ------------------------------------

  void scan_namespace_statement() {
    const std::string s = joined_stmt();
    record_alias(s);
  }

  void record_alias(const std::string& s) {
    static const std::regex kUsing(
        R"(\busing\s+([A-Za-z_]\w*)\s*=\s*([^;]+))");
    static const std::regex kTypedef(
        R"(\btypedef\s+(.+?)\s+([A-Za-z_]\w*)\s*$)");
    std::smatch m;
    if (std::regex_search(s, m, kUsing)) {
      fm.aliases[m[1].str()] = trim(m[2].str());
    } else if (std::regex_search(s, m, kTypedef)) {
      fm.aliases[m[2].str()] = trim(m[1].str());
    }
  }

  /// Extracts the declarator name before the first top-level '(' in a
  /// (annotation-stripped) head. Returns "" when there is none.
  static std::string declarator_name(const std::string& head,
                                     std::string* qual_out) {
    int angle = 0;
    for (std::size_t i = 0; i < head.size(); ++i) {
      const char c = head[i];
      if (c == '<') ++angle;
      if (c == '>' && angle > 0) --angle;
      if (c == '(' && angle == 0) {
        std::string chain = receiver_chain_before(head, i);
        if (chain.empty()) {
          // operator()/operator[] and friends.
          static const std::regex kOp(R"(\boperator\s*([^\s(]{0,2})\s*$)");
          std::smatch m;
          const std::string upto = head.substr(0, i);
          if (std::regex_search(upto, m, kOp)) {
            return "operator" + m[1].str();
          }
          return "";
        }
        const std::size_t sep = chain.rfind("::");
        if (sep != std::string::npos) {
          std::string qual = chain.substr(0, sep);
          // Out-of-line templates: FlatMap<K, V>::find -> FlatMap.
          const std::size_t lt = qual.find('<');
          if (lt != std::string::npos) qual = qual.substr(0, lt);
          const std::size_t qsep = qual.rfind("::");
          if (qual_out) {
            *qual_out =
                qsep == std::string::npos ? qual : qual.substr(qsep + 2);
          }
          return chain.substr(sep + 2);
        }
        // Plain `name(`: the name is the whole chain unless it contains
        // member access (then it is an expression, not a declarator).
        if (chain.find('.') != std::string::npos) return "";
        return chain;
      }
    }
    return "";
  }

  void parse_class_statement() {
    std::string s = joined_stmt();
    // Access specifiers ride along in the buffer; drop them, plus the
    // statement's own terminating semicolon.
    static const std::regex kAccess(R"(\b(public|private|protected)\s*:)");
    s = trim(std::regex_replace(s, kAccess, " "));
    while (!s.empty() && (s.back() == ';' || s.back() == ' ')) s.pop_back();
    if (s.empty()) return;
    if (contains_word(s, "friend") || contains_word(s, "static_assert")) {
      return;
    }
    if (contains_word(s, "using") || contains_word(s, "typedef")) {
      record_alias(s);
      return;
    }
    const int ci = innermost_class();
    if (ci < 0) return;
    Class& cls = fm.classes[static_cast<std::size_t>(ci)];
    const int line = stmt.empty() ? 0 : stmt.front().first;

    const std::vector<std::string> reqs = capture_requires(s);
    const bool hot = contains_word(s, "CDN_HOT");
    const bool is_virtual = contains_word(s, "virtual") ||
                            contains_word(s, "override") ||
                            contains_word(s, "final");
    const std::string stripped = collapse_ws(strip_annotations(s));

    std::string qual;
    const std::string fn_name = declarator_name(stripped, &qual);
    if (!fn_name.empty()) {
      MethodDecl decl;
      decl.name = fn_name;
      decl.line = line;
      decl.is_virtual = is_virtual;
      decl.hot = hot;
      decl.entry_locks = reqs;
      cls.method_decls.push_back(std::move(decl));
      return;
    }

    // Member declaration: cut default initializer / bitfield, then the
    // trailing identifier is the name and the rest is the type.
    std::string decl = stripped;
    int angle = 0;
    for (std::size_t i = 0; i < decl.size(); ++i) {
      const char c = decl[i];
      if (c == '<') ++angle;
      if (c == '>' && angle > 0) --angle;
      if (angle != 0) continue;
      if (c == '=' || c == '{') {
        decl = decl.substr(0, i);
        break;
      }
      if (c == ':' && (i + 1 >= decl.size() || decl[i + 1] != ':') &&
          (i == 0 || decl[i - 1] != ':')) {
        decl = decl.substr(0, i);  // bitfield
        break;
      }
    }
    decl = trim(decl);
    // Array suffix.
    const std::size_t bracket = decl.find('[');
    if (bracket != std::string::npos) decl = trim(decl.substr(0, bracket));
    std::size_t e = decl.size();
    while (e > 0 && is_ident_char(decl[e - 1])) --e;
    const std::string name = decl.substr(e);
    std::string type = trim(decl.substr(0, e));
    while (!type.empty() && (type.back() == '&' || type.back() == '*')) {
      type.pop_back();
      type = trim(type);
    }
    if (name.empty() || type.empty()) return;
    static const std::set<std::string> kNotTypes = {"return", "delete",
                                                   "default", "enum"};
    if (kNotTypes.count(type) != 0) return;
    Member member;
    member.name = name;
    member.type = type;  // full text: resolve_class needs template args
    member.line = line;
    cls.members.push_back(std::move(member));
  }

  // -- brace classification -------------------------------------------------

  void open_brace(int line) {
    ScopeFrame frame;
    frame.saved_paren = paren_depth;

    const bool in_function = innermost_function() >= 0 &&
                             (scopes.empty() ||
                              scopes.back().kind != ScopeFrame::kClass);
    if (paren_depth > 0 || in_function) {
      // Lambda body, brace-init inside an expression, or a block inside a
      // function. Scan the pending statement first (control-flow headers:
      // `if (m.try_lock()) {`). Inside parens the statement is merely
      // interrupted — preserve it across the block.
      if (in_function && paren_depth == 0) flush_statement_into_function();
      frame.kind = ScopeFrame::kBlock;
      if (paren_depth > 0) frame.saved_stmt = std::move(stmt);
      scopes.push_back(std::move(frame));
      paren_depth = 0;
      stmt.clear();
      return;
    }

    std::string head = joined_stmt();
    const std::vector<std::string> reqs = capture_requires(head);
    const bool hot = contains_word(head, "CDN_HOT");
    const bool is_virtual = contains_word(head, "virtual") ||
                            contains_word(head, "override");
    head = collapse_ws(strip_annotations(head));

    if (contains_word(head, "namespace")) {
      frame.kind = ScopeFrame::kNamespace;
      scopes.push_back(frame);
      stmt.clear();
      return;
    }
    if (contains_word(head, "enum")) {
      frame.kind = ScopeFrame::kBlock;
      scopes.push_back(frame);
      stmt.clear();
      return;
    }
    const bool classish = contains_word(head, "class") ||
                          contains_word(head, "struct") ||
                          contains_word(head, "union");
    if (classish && head.find('(') == std::string::npos) {
      // Class name: last identifier before `final` / base clause / `{`.
      std::string h = head;
      static const std::regex kKw(R"(\b(class|struct|union)\b)");
      std::smatch m;
      std::string tail = h;
      for (auto it = std::sregex_iterator(h.begin(), h.end(), kKw);
           it != std::sregex_iterator(); ++it) {
        tail = h.substr(static_cast<std::size_t>(it->position()) +
                        it->length());
      }
      // Cut the base clause (single ':' at angle depth 0).
      int angle = 0;
      for (std::size_t i = 0; i < tail.size(); ++i) {
        if (tail[i] == '<') ++angle;
        if (tail[i] == '>' && angle > 0) --angle;
        if (angle != 0) continue;
        if (tail[i] == ':' && (i + 1 >= tail.size() || tail[i + 1] != ':') &&
            (i == 0 || tail[i - 1] != ':')) {
          tail = tail.substr(0, i);
          break;
        }
      }
      static const std::regex kFinal(R"(\bfinal\b)");
      tail = std::regex_replace(tail, kFinal, " ");
      tail = trim(tail);
      const std::size_t lt = tail.find('<');
      if (lt != std::string::npos) tail = trim(tail.substr(0, lt));
      std::size_t e = tail.size();
      while (e > 0 && is_ident_char(tail[e - 1])) --e;
      std::string name = tail.substr(e);
      if (name.empty()) name = "<anon>";

      Class cls;
      cls.name = name;
      const int outer = innermost_class();
      cls.qual = outer >= 0 ? fm.classes[static_cast<std::size_t>(outer)].qual +
                                  "::" + name
                            : name;
      cls.begin_line = line;
      frame.kind = ScopeFrame::kClass;
      frame.class_index = static_cast<int>(fm.classes.size());
      fm.classes.push_back(std::move(cls));
      scopes.push_back(frame);
      stmt.clear();
      return;
    }

    // Brace-init / aggregate: `= {`, `, {`, `( {`, or directly after an
    // identifier with no parameter list (`Request{}`). A head that ends in
    // an identifier but contains a top-level '(' is a function with
    // trailing qualifiers (`void f() const {`) and falls through.
    {
      std::string h = trim(head);
      if (!h.empty()) {
        const char last = h.back();
        if (last == '=' || last == ',' || last == '(' || last == '[' ||
            last == '<') {
          // Brace-init at class/namespace scope (member `= { ... }`): the
          // declaration continues after the closing brace.
          frame.kind = ScopeFrame::kBlock;
          frame.saved_stmt = std::move(stmt);
          scopes.push_back(std::move(frame));
          stmt.clear();
          return;
        }
        if (is_ident_char(last)) {
          int angle = 0;
          bool has_paren = false;
          for (const char c : h) {
            if (c == '<') ++angle;
            if (c == '>' && angle > 0) --angle;
            if (c == '(' && angle == 0) has_paren = true;
          }
          if (!has_paren) {
            frame.kind = ScopeFrame::kBlock;
            scopes.push_back(frame);
            stmt.clear();
            return;
          }
        }
      }
    }

    std::string qual;
    std::string name = declarator_name(head, &qual);
    // `try {` at function scope etc. fall through to plain blocks.
    if (name.empty() && trim(head).empty() == false &&
        trim(head).back() == ')') {
      name = "<anon-fn>";  // e.g. a ctor whose init list we mis-split
    }
    if (!name.empty()) {
      Function fn;
      fn.name = name;
      if (!qual.empty()) {
        fn.qual_class = qual;
      } else {
        const int ci = innermost_class();
        if (ci >= 0 && directly_in_class()) {
          fn.qual_class = fm.classes[static_cast<std::size_t>(ci)].name;
        }
      }
      fn.head_line = line;
      fn.hot = hot;
      fn.entry_locks = reqs;
      // Parameter types become resolvable locals.
      parse_params(head, fn);
      frame.kind = ScopeFrame::kFunction;
      frame.func_index = static_cast<int>(fm.functions.size());
      // Inline method bodies also register a MethodDecl so virtual-ness
      // and CDN_HOT markers merge uniformly across TUs.
      const int ci = innermost_class();
      if (ci >= 0 && directly_in_class()) {
        MethodDecl decl;
        decl.name = name;
        decl.line = line;
        decl.is_virtual = is_virtual;
        decl.hot = hot;
        decl.entry_locks = reqs;
        fm.classes[static_cast<std::size_t>(ci)].method_decls.push_back(
            std::move(decl));
      }
      fm.functions.push_back(std::move(fn));
      scopes.push_back(frame);
      stmt.clear();
      return;
    }

    frame.kind = ScopeFrame::kBlock;
    scopes.push_back(frame);
    stmt.clear();
  }

  static void parse_params(const std::string& head, Function& fn) {
    const std::size_t open = head.find('(');
    if (open == std::string::npos) return;
    int depth = 0;
    std::size_t close = std::string::npos;
    for (std::size_t i = open; i < head.size(); ++i) {
      if (head[i] == '(') ++depth;
      if (head[i] == ')' && --depth == 0) {
        close = i;
        break;
      }
    }
    if (close == std::string::npos) return;
    const std::string params = head.substr(open + 1, close - open - 1);
    std::vector<std::string> parts;
    int angle = 0;
    int paren = 0;
    std::string cur;
    for (const char c : params) {
      if (c == '<') ++angle;
      if (c == '>' && angle > 0) --angle;
      if (c == '(') ++paren;
      if (c == ')') --paren;
      if (c == ',' && angle == 0 && paren == 0) {
        parts.push_back(cur);
        cur.clear();
      } else {
        cur.push_back(c);
      }
    }
    if (!trim(cur).empty()) parts.push_back(cur);
    static const std::regex kParam(
        R"(^\s*(?:const\s+)?([A-Za-z_][\w:]*(?:<[^;]*>)?)\s*(?:const\s*)?[&*]*\s+([A-Za-z_]\w*)\s*(?:=[^,]*)?$)");
    for (const std::string& p : parts) {
      std::smatch m;
      const std::string t = trim(p);
      if (std::regex_match(t, m, kParam)) {
        fn.locals[m[2].str()] = strip_type(m[1].str());
      }
    }
  }

  void close_brace(int line) {
    if (scopes.empty()) return;
    const int fi = innermost_function();
    if (fi >= 0 && paren_depth == 0) flush_statement_into_function();
    ScopeFrame frame = std::move(scopes.back());
    scopes.pop_back();
    paren_depth = frame.saved_paren;
    stmt = std::move(frame.saved_stmt);  // empty unless expression brace
    // Locks scoped to the closed frame are released.
    while (!lock_stack.empty() && lock_stack.back().second > scopes.size()) {
      lock_stack.pop_back();
    }
    if (frame.kind == ScopeFrame::kClass && frame.class_index >= 0) {
      fm.classes[static_cast<std::size_t>(frame.class_index)].end_line = line;
    }
    if (frame.kind == ScopeFrame::kFunction && frame.func_index >= 0) {
      Function& fn = fm.functions[static_cast<std::size_t>(frame.func_index)];
      fn.end_line = line;
    }
  }

  void statement_end() {
    if (directly_in_class()) {
      parse_class_statement();
    } else {
      flush_statement_into_function();
    }
    stmt.clear();
  }

  void run() {
    bool in_pp = false;  // inside a preprocessor directive (+ continuations)
    for (std::size_t li = 0; li < fm.view.code.size(); ++li) {
      const std::string& code = fm.view.code[li];
      const int line = static_cast<int>(li) + 1;
      const std::string trimmed = trim(code);
      if (in_pp || (!trimmed.empty() && trimmed[0] == '#')) {
        in_pp = !code.empty() && code.back() == '\\';
        continue;
      }
      std::string seg;
      for (std::size_t i = 0; i < code.size(); ++i) {
        const char c = code[i];
        if (c == '(') ++paren_depth;
        if (c == ')') paren_depth = std::max(0, paren_depth - 1);
        if (c == '{' && true) {
          if (!trim(seg).empty()) stmt.emplace_back(line, seg);
          seg.clear();
          open_brace(line);
          continue;
        }
        if (c == '}') {
          if (!trim(seg).empty()) stmt.emplace_back(line, seg);
          seg.clear();
          close_brace(line);
          continue;
        }
        seg.push_back(c);
        if (c == ';' && paren_depth == 0) {
          stmt.emplace_back(line, seg);
          seg.clear();
          statement_end();
        }
      }
      if (!trim(seg).empty()) stmt.emplace_back(line, seg);
    }
    // Close dangling scopes at EOF so spans stay valid.
    while (!scopes.empty()) {
      close_brace(static_cast<int>(fm.view.code.size()));
    }
  }
};

std::vector<HotRegion> find_hot_regions(const std::vector<std::string>& raw) {
  std::vector<HotRegion> regions;
  int open = -1;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i].find("detlint:hot-begin") != std::string::npos) {
      if (open < 0) open = static_cast<int>(i) + 1;
    } else if (raw[i].find("detlint:hot-end") != std::string::npos) {
      if (open >= 0) {
        regions.push_back(HotRegion{open, static_cast<int>(i) + 1});
        open = -1;
      }
    }
  }
  if (open >= 0) {
    regions.push_back(HotRegion{open, static_cast<int>(raw.size())});
  }
  return regions;
}

}  // namespace

FileModel build_file_model(const std::string& rel_path,
                           const std::string& text) {
  FileModel fm;
  fm.path = rel_path;
  fm.view = build_code_view(text);
  fm.allowed = parse_suppressions(fm.view.raw).allowed;
  fm.hot_regions = find_hot_regions(fm.view.raw);
  Parser parser{fm, {}, 0, {}, {}};
  parser.run();
  return fm;
}

// ---------------------------------------------------------------------------
// Project model
// ---------------------------------------------------------------------------

std::string strip_type(const std::string& type) {
  std::string s = collapse_ws(type);
  static const std::regex kQual(
      R"(\b(const|mutable|static|constexpr|volatile|inline|typename|struct|class)\b)");
  s = std::regex_replace(s, kQual, " ");
  // Strip the template argument list of the head type.
  const std::size_t lt = s.find('<');
  if (lt != std::string::npos) s = s.substr(0, lt);
  s = collapse_ws(s);
  while (!s.empty() && (s.back() == '&' || s.back() == '*' ||
                        s.back() == ' ')) {
    s.pop_back();
  }
  return trim(s);
}

bool is_container_type(const std::string& type) {
  static const std::set<std::string> kContainers = {
      "vector",        "deque",         "list",
      "forward_list",  "map",           "multimap",
      "set",           "multiset",      "unordered_map",
      "unordered_set", "unordered_multimap", "unordered_multiset",
      "FlatMap"};
  std::string head = strip_type(type);
  const std::size_t sep = head.rfind("::");
  if (sep != std::string::npos) head = head.substr(sep + 2);
  return kContainers.count(head) != 0;
}

void ProjectModel::add(FileModel fm) { files.push_back(std::move(fm)); }

void ProjectModel::finalize() {
  classes.clear();
  accounting_classes.clear();
  mutex_members.clear();
  aliases.clear();
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const FileModel& fm = files[fi];
    for (const auto& [name, target] : fm.aliases) {
      aliases.emplace(name, target);
    }
    for (std::size_t ci = 0; ci < fm.classes.size(); ++ci) {
      const Class& cls = fm.classes[ci];
      classes.emplace(cls.name, std::make_pair(fi, ci));
      for (const MethodDecl& d : cls.method_decls) {
        if (d.name == "metadata_bytes") accounting_classes.insert(cls.name);
      }
      for (const Member& m : cls.members) {
        std::string head = strip_type(m.type);
        const std::size_t sep = head.rfind("::");
        if (sep != std::string::npos) head = head.substr(sep + 2);
        if (head == "Mutex" || head == "mutex" || head == "shared_mutex" ||
            head == "recursive_mutex" || head == "timed_mutex") {
          mutex_members[m.name].insert(cls.qual);
        }
      }
    }
    for (const Function& fn : fm.functions) {
      if (fn.name == "metadata_bytes" && !fn.qual_class.empty()) {
        accounting_classes.insert(fn.qual_class);
      }
    }
  }
}

const Class* ProjectModel::find_class(const std::string& unqual) const {
  const auto range = classes.equal_range(unqual);
  if (range.first == range.second) return nullptr;
  const auto& [fi, ci] = range.first->second;
  return &files[fi].classes[ci];
}

std::string ProjectModel::resolve_class(const std::string& type) const {
  std::string cur = type;
  for (int hops = 0; hops < 8; ++hops) {
    std::string head = strip_type(cur);
    const std::size_t sep = head.rfind("::");
    const std::string last =
        sep == std::string::npos ? head : head.substr(sep + 2);
    if (last == "unique_ptr" || last == "shared_ptr") {
      // Recurse into the first template argument.
      const std::string collapsed = collapse_ws(cur);
      const std::size_t lt = collapsed.find('<');
      if (lt == std::string::npos) return "";
      int angle = 0;
      std::size_t end = collapsed.size();
      for (std::size_t i = lt; i < collapsed.size(); ++i) {
        if (collapsed[i] == '<') ++angle;
        if (collapsed[i] == '>') {
          if (--angle == 0) {
            end = i;
            break;
          }
        }
        if (collapsed[i] == ',' && angle == 1) {
          end = i;
          break;
        }
      }
      cur = collapsed.substr(lt + 1, end - lt - 1);
      continue;
    }
    const auto alias = aliases.find(last);
    if (alias != aliases.end() && alias->second != cur) {
      cur = alias->second;
      continue;
    }
    return find_class(last) != nullptr ? last : "";
  }
  return "";
}

}  // namespace cdn::detlint
