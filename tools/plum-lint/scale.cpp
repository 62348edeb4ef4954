#include "scale.hpp"

#include <algorithm>
#include <map>

#include "lexer.hpp"
#include "token_util.hpp"

namespace plumlint {

namespace {

constexpr const char* kDense = "dense-rank-container";
constexpr const char* kReplicated = "replicated-global-state";
constexpr const char* kInterproc = "interprocedural-superstep-mutation";
constexpr const char* kAllRanksSend = "all-ranks-send";
constexpr const char* kBadAnnot = "bad-annotation";
constexpr const char* kUnusedAnnot = "unused-annotation";

bool is_meta(const std::string& c) {
  return c == kBadAnnot || c == kUnusedAnnot;
}

// --- check: dense-rank-container ---------------------------------------------

/// True if the size expression [begin, end) mentions a rank-count name;
/// `product` is set when two rank-count mentions are joined by '*'
/// (`P * P`, `nranks * nranks`) — the O(P^2) variant.
bool size_expr_uses_rank_count(const SymbolIndex& index,
                               const std::string& file, const Tokens& t,
                               std::size_t begin, std::size_t end,
                               std::string& name, bool& product) {
  bool found = false;
  bool pending_product = false;  // saw rank-count then '*'
  int sq_depth = 0;  // inside a [...] subscript span
  product = false;
  for (std::size_t j = begin; j < end; ++j) {
    if (is(t[j], "[")) ++sq_depth;
    if (is(t[j], "]") && sq_depth > 0) --sq_depth;
    if (t[j].kind == Tok::Ident && index.is_rank_count(file, t[j].text)) {
      // A rank id inside a subscript (`u[r].size()`,
      // `u[static_cast<size_t>(r)].size()`) selects per-rank data; the
      // size is whatever comes back, not P.
      if (sq_depth > 0) continue;
      // A rank id handed to a *function* (`count_of(r)`,
      // `dm.local(r).num_edges()`) is an argument, not a size. Casts
      // (`size_t(n)`, `static_cast<size_t>(n)`) are still sizes.
      if (j >= 2 && is(t[j - 1], "(") && is(t[j + 1], ")") &&
          t[j - 2].kind == Tok::Ident && t[j - 2].text != "Rank" &&
          !type_keywords().count(t[j - 2].text)) {
        continue;
      }
      if (pending_product) product = true;
      if (!found) name = t[j].text;
      found = true;
      continue;
    }
    if (is(t[j], "*") && found) pending_product = true;
  }
  return found;
}

/// End of the first call argument: the first depth-0 comma, or pclose.
std::size_t first_arg_end(const Tokens& t, std::size_t popen,
                          std::size_t pclose) {
  int depth = 0;
  for (std::size_t j = popen + 1; j < pclose; ++j) {
    const std::string& x = t[j].text;
    if (x == "(" || x == "[" || x == "{" || x == "<") ++depth;
    if (x == ")" || x == "]" || x == "}" || x == ">") --depth;
    if (x == "," && depth == 0) return j;
  }
  return pclose;
}

void check_dense_rank_container(const SymbolIndex& index,
                                const std::string& file, const Tokens& t,
                                std::vector<Diagnostic>& out) {
  auto emit = [&](int line, const std::string& site, const std::string& name,
                  bool product) {
    const std::string scale = product ? "P * P" : "P";
    out.push_back(
        {file, line, kDense,
         site + " sized by rank count '" + name + "': resident memory scales "
         "O(" + scale + ") with the number of ranks" +
             (product ? " SQUARED — a dense all-pairs structure that defeats "
                        "weak scaling outright"
                      : "") +
             "; annotate `plum-scale: dist(P)` if this is deliberate "
             "per-rank state, `plum-scale: host-only` if it never lives on "
             "a rank, or make it sparse",
         false,
         ""});
  };

  for (std::size_t i = 1; i + 1 < t.size(); ++i) {
    if (t[i].kind != Tok::Ident || t[i].preproc) continue;

    // member sizing calls: x.resize(E) / x.assign(E, ..) / x.reserve(E)
    if ((is(t[i], "resize") || is(t[i], "assign") || is(t[i], "reserve")) &&
        (is(t[i - 1], ".") || is(t[i - 1], "->")) && is(t[i + 1], "(")) {
      const std::size_t popen = i + 1;
      const std::size_t pclose = match_forward(t, popen, "(", ")");
      const std::size_t arg_end = first_arg_end(t, popen, pclose);
      std::string name;
      bool product = false;
      if (size_expr_uses_rank_count(index, file, t, popen + 1, arg_end, name,
                                    product)) {
        emit(t[i].line, "'" + t[i].text + "(...)'", name, product);
      }
      continue;
    }

    // constructor sizing: vector<T> x(E) / vector<T> x(E, init)
    if (is(t[i], "vector") && is(t[i + 1], "<")) {
      std::size_t j = skip_template(t, i + 1);
      if (t[j].kind != Tok::Ident || !is(t[j + 1], "(")) continue;
      const std::size_t popen = j + 1;
      const std::size_t pclose = match_forward(t, popen, "(", ")");
      // A function DECLARATION returning vector<T> looks identical up to
      // here (`std::vector<SimilarityCell> build_row_sparse(Rank proc,
      // ...)`). Size expressions never have two adjacent identifiers at
      // nesting depth 0 — parameter declarations (`Rank proc`) always do.
      bool is_declaration = false;
      int depth = 0;
      for (std::size_t k = popen + 1; k < pclose; ++k) {
        const std::string& x = t[k].text;
        if (x == "(" || x == "[" || x == "{" || x == "<") ++depth;
        if (x == ")" || x == "]" || x == "}" || x == ">") --depth;
        if (depth == 0 && t[k].kind == Tok::Ident &&
            t[k + 1].kind == Tok::Ident) {
          is_declaration = true;
          break;
        }
      }
      if (is_declaration) continue;
      const std::size_t arg_end = first_arg_end(t, popen, pclose);
      std::string name;
      bool product = false;
      if (size_expr_uses_rank_count(index, file, t, popen + 1, arg_end, name,
                                    product)) {
        emit(t[j].line, "'" + t[j].text + "' constructed", name, product);
      }
    }
  }
}

// --- check: replicated-global-state ------------------------------------------

/// Field types that hold global-mesh-sized state: anything keyed by the
/// global Index type, or the dist-mesh SplMap alias. type_text is
/// space-joined tokens, so "map < Index" matches std::map and
/// std::unordered_map alike.
bool holds_global_index_state(const std::string& type_text) {
  return type_text.find("map < Index") != std::string::npos ||
         type_text.find("SplMap") != std::string::npos ||
         type_text.find("set < Index") != std::string::npos;
}

void check_replicated_global_state(
    const SymbolIndex& index,
    std::map<std::string, std::vector<Diagnostic>>& by_file) {
  for (const auto& [key, s] : index.structs) {
    if (!index.is_replicated(s.name)) continue;
    const ReplicationSite* site = nullptr;
    for (const auto& r : index.replications) {
      if (r.struct_name == s.name) {
        site = &r;
        break;
      }
    }
    for (const auto& f : s.fields) {
      if (!holds_global_index_state(f.type_text)) continue;
      std::string where;
      if (site != nullptr) {
        where = " (vector<" + s.name + "> at " + site->file + ":" +
                std::to_string(site->line) + ")";
      }
      by_file[s.file].push_back(
          {s.file, f.line, kReplicated,
           "field '" + f.name + "' of '" + s.name + "' is keyed by global "
           "Index while '" + s.name + "' is held once per rank" + where +
               ": aggregate memory scales as P x global mesh — the "
               "replicated-state pattern PLUM's partitioned remapping "
               "exists to avoid; key it by local index, shard it, or "
               "annotate `plum-scale: dist(P)` / `host-only` with a reason",
           false,
           ""});
    }
  }
}

// --- check: interprocedural-superstep-mutation -------------------------------

/// Picks the summary for `name` matching the call's argument count, or
/// the first definition if no arity matches (best-effort for overloads).
const FuncInfo* summary_for(const SymbolIndex& index, const std::string& name,
                            std::size_t nargs) {
  const auto it = index.functions.find(name);
  if (it == index.functions.end() || it->second.empty()) return nullptr;
  for (const auto& def : it->second) {
    if (def.param_names.size() == nargs) return &def;
  }
  return &it->second.front();
}

/// Splits a call's arguments at depth-0 commas into [begin, end) spans.
std::vector<std::pair<std::size_t, std::size_t>> split_args(
    const Tokens& t, std::size_t popen, std::size_t pclose) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  if (pclose == popen + 1) return out;
  std::size_t start = popen + 1;
  int depth = 0;
  for (std::size_t j = popen + 1; j <= pclose; ++j) {
    const std::string& x = t[j].text;
    if (x == "(" || x == "[" || x == "{" || x == "<") ++depth;
    if (x == "]" || x == "}" || x == ">") --depth;
    if ((x == "," && depth == 0) || j == pclose) {
      out.emplace_back(start, j);
      start = j + 1;
    }
    if (x == ")" && j != pclose) --depth;
  }
  return out;
}

/// Names declared anywhere in the lambda body (a deliberate superset of
/// exact scoping: a miss here would be a false positive, so we err local).
std::set<std::string> body_local_names(const Tokens& t,
                                       const SuperstepLambda& lam) {
  std::set<std::string> locals(lam.param_names.begin(),
                               lam.param_names.end());
  for (std::size_t i = lam.body_begin + 1; i < lam.body_end; ++i) {
    const bool stmt_start =
        is(t[i - 1], ";") || is(t[i - 1], "{") || is(t[i - 1], "}");
    if (stmt_start) {
      DeclNames d = try_parse_decl(t, i);
      for (auto& n : d.names) locals.insert(std::move(n));
    }
    if (is(t[i], "for") && is(t[i + 1], "(")) {
      DeclNames d = try_parse_decl(t, i + 2);
      for (auto& n : d.names) locals.insert(std::move(n));
    }
    if (is(t[i], "[") && lambda_position(t[i - 1])) {
      const std::size_t cap_end = match_forward(t, i, "[", "]");
      for (auto& n : nested_lambda_own_names(t, i, cap_end)) {
        locals.insert(std::move(n));
      }
    }
  }
  return locals;
}

void check_interprocedural(const SymbolIndex& index, const std::string& file,
                           const Tokens& t, std::vector<Diagnostic>& out) {
  const auto lambdas = find_superstep_lambdas(t);
  for (const auto& lam : lambdas) {
    const SkipSpans skip = nested_superstep_spans(lambdas, lam);
    const std::set<std::string> locals = body_local_names(t, lam);
    for (std::size_t i = lam.body_begin + 1; i < lam.body_end; ++i) {
      const std::size_t jump = skip_to(skip, i);
      if (jump != i) {
        i = jump;
        continue;
      }
      const Token& tk = t[i];
      if (tk.kind != Tok::Ident || tk.preproc) continue;
      if (!is(t[i + 1], "(")) continue;
      // Member calls dispatch on their receiver; the free-function index
      // has nothing to say about them.
      if (is(t[i - 1], ".") || is(t[i - 1], "->")) continue;
      if (stmt_keywords().count(tk.text)) continue;
      const std::size_t popen = i + 1;
      const std::size_t pclose = match_forward(t, popen, "(", ")");
      const auto args = split_args(t, popen, pclose);
      const FuncInfo* fn = summary_for(index, tk.text, args.size());
      if (fn == nullptr || fn->mutated_params.empty()) continue;
      for (const std::size_t p : fn->mutated_params) {
        if (p >= args.size()) continue;
        const auto [abegin, aend] = args[p];
        // The argument's base identifier; rank-indexed if the lambda's
        // rank variable appears inside a subscript within the argument.
        std::string base;
        bool rank_indexed = false;
        int sub_depth = 0;
        for (std::size_t j = abegin; j < aend; ++j) {
          if (is(t[j], "[")) ++sub_depth;
          if (is(t[j], "]")) --sub_depth;
          if (t[j].kind != Tok::Ident) continue;
          if (base.empty() && !is(t[j + 1], "(") && !is(t[j - 1], "::")) {
            base = t[j].text;
          }
          if (sub_depth > 0 && !lam.rank_var.empty() &&
              t[j].text == lam.rank_var) {
            rank_indexed = true;
          }
        }
        if (base.empty() || rank_indexed) continue;
        if (locals.count(base)) continue;
        if (!lam.rank_var.empty() && base == lam.rank_var) continue;
        out.push_back(
            {file, tk.line, kInterproc,
             "'" + tk.text + "(...)' mutates its parameter '" +
                 fn->param_names[p] + "' (summary from " + fn->file + ":" +
                 std::to_string(fn->line) + ") and is called with captured '" +
                 base + "' from a superstep lambda without per-rank "
                 "indexing: a shared-accumulator race hidden behind a call; "
                 "pass rank-owned state (e.g. " + base + "[r]) instead",
             false,
             ""});
      }
    }
  }
}

// --- check: all-ranks-send ----------------------------------------------------

/// The variable a `for` init clause starting at `i` declares or assigns.
std::string loop_var(const Tokens& t, std::size_t i) {
  const DeclNames d = try_parse_decl(t, i);
  if (!d.names.empty()) return d.names.front();
  if (t[i].kind == Tok::Ident && is(t[i + 1], "=")) return t[i].text;
  return "";
}

/// True if the condition [begin, end) bounds `var` by a rank count:
/// `q < P`, `q <= nranks - 1`, `q != eng.nranks()`.
bool bounded_by_rank_count(const SymbolIndex& index, const std::string& file,
                           const Tokens& t, std::size_t begin, std::size_t end,
                           const std::string& var) {
  for (std::size_t j = begin + 1; j < end; ++j) {
    if (!is(t[j], "<") && !is(t[j], "<=") && !is(t[j], "!=")) continue;
    if (t[j - 1].text != var) continue;
    for (std::size_t k = j + 1; k < end; ++k) {
      if (t[k].kind == Tok::Ident && index.is_rank_count(file, t[k].text)) {
        return true;
      }
    }
  }
  return false;
}

/// End of the statement starting at `i`: the `}` closing a block, else
/// the first `;` outside nested braces and parentheses.
std::size_t statement_end(const Tokens& t, std::size_t i) {
  if (is(t[i], "{")) return match_forward(t, i, "{", "}");
  for (; t[i].kind != Tok::End && !is(t[i], ";"); ++i) {
    if (is(t[i], "{")) i = match_forward(t, i, "{", "}");
    if (is(t[i], "(")) i = match_forward(t, i, "(", ")");
  }
  return i;
}

/// True if [begin, end) calls `.send(` / `.send_vec(` (or through `->`)
/// with `var` in the destination argument.
bool sends_to(const Tokens& t, std::size_t begin, std::size_t end,
              const std::string& var) {
  for (std::size_t j = begin + 1; j < end; ++j) {
    if (!is(t[j], "send") && !is(t[j], "send_vec")) continue;
    if (!is(t[j - 1], ".") && !is(t[j - 1], "->")) continue;
    if (!is(t[j + 1], "(")) continue;
    const std::size_t pclose = match_forward(t, j + 1, "(", ")");
    const std::size_t arg_end = first_arg_end(t, j + 1, pclose);
    for (std::size_t k = j + 2; k < arg_end; ++k) {
      if (t[k].text == var) return true;
    }
  }
  return false;
}

void check_all_ranks_send(const SymbolIndex& index, const std::string& file,
                          const Tokens& t, std::vector<Diagnostic>& out) {
  const auto lambdas = find_superstep_lambdas(t);
  for (const auto& lam : lambdas) {
    const SkipSpans skip = nested_superstep_spans(lambdas, lam);
    for (std::size_t i = lam.body_begin + 1; i < lam.body_end; ++i) {
      const std::size_t jump = skip_to(skip, i);
      if (jump != i) {
        i = jump;
        continue;
      }
      if (!is(t[i], "for") || !is(t[i + 1], "(")) continue;
      const std::size_t popen = i + 1;
      const std::size_t pclose = match_forward(t, popen, "(", ")");
      // init ; cond ; step — a range-for has no condition to bound.
      std::size_t semi1 = popen + 1;
      while (semi1 < pclose && !is(t[semi1], ";")) ++semi1;
      std::size_t semi2 = semi1 + 1;
      while (semi2 < pclose && !is(t[semi2], ";")) ++semi2;
      if (semi2 >= pclose) continue;
      const std::string var = loop_var(t, popen + 1);
      if (var.empty() ||
          !bounded_by_rank_count(index, file, t, semi1 + 1, semi2, var)) {
        continue;
      }
      if (!sends_to(t, pclose, statement_end(t, pclose + 1), var)) continue;
      out.push_back(
          {file, t[i].line, kAllRanksSend,
           "loop over every rank ('" + var + "') posts a send per rank "
           "inside a superstep: O(P) messages and staging per rank, O(P^2) "
           "per superstep; send only to the ranks that hold the data (stage "
           "by SPL peer with pmesh::PeerBuckets), or annotate `plum-scale: "
           "allow(all-ranks-send) -- <why>`",
           false,
           ""});
    }
  }
}

// --- annotations --------------------------------------------------------------

struct Annotation {
  int line = 0;
  /// "dist", "host-only", "scratch", or a check name (allow).
  std::string kind;
  std::string justification;
  bool used = false;
};

bool annotation_matches(const Annotation& a, const Diagnostic& d) {
  if (a.line != d.line && a.line != d.line - 1) return false;
  if (a.kind == "dist" || a.kind == "host-only" || a.kind == "scratch") {
    return d.check == kDense || d.check == kReplicated;
  }
  return a.kind == d.check;
}

void parse_annotations(const std::string& file,
                       const std::vector<Comment>& comments,
                       std::vector<Annotation>& annots,
                       std::vector<Diagnostic>& out) {
  for (std::size_t ci = 0; ci < comments.size(); ++ci) {
    const Comment& c = comments[ci];
    const std::size_t tag = c.text.find("plum-scale:");
    if (tag == std::string::npos) continue;
    const std::string rest = trim(c.text.substr(tag + 11));

    std::string kind;
    std::size_t body_at = std::string::npos;
    if (rest.rfind("dist(P)", 0) == 0) {
      kind = "dist";
      body_at = 7;
    } else if (rest.rfind("host-only", 0) == 0) {
      kind = "host-only";
      body_at = 9;
    } else if (rest.rfind("scratch", 0) == 0) {
      // Declarative marker: this container is phase-local arena scratch
      // (plum-mem), reclaimed wholesale at cycle reset. It acknowledges a
      // dense-rank/replicated hit when one anchors here, and is otherwise
      // informational — never reported unused.
      kind = "scratch";
      body_at = 7;
    } else if (rest.rfind("allow(", 0) == 0) {
      const std::size_t close = rest.find(')');
      if (close != std::string::npos && close > 6) {
        const std::string check = trim(rest.substr(6, close - 6));
        bool known = false;
        for (const auto& info : scale_checks()) known |= (check == info.name);
        if (!known || is_meta(check)) {
          out.push_back({file, c.line, kBadAnnot,
                         "unknown or unsuppressable check '" + check +
                             "' in plum-scale annotation",
                         false,
                         ""});
          continue;
        }
        kind = check;
        body_at = close + 1;
      }
    }
    if (kind.empty()) {
      out.push_back({file, c.line, kBadAnnot,
                     "malformed plum-scale comment; expected `plum-scale: "
                     "dist(P) -- <why>`, `plum-scale: host-only -- <why>`, "
                     "`plum-scale: scratch -- <why>`, "
                     "or `plum-scale: allow(<check>) -- <why>`",
                     false,
                     ""});
      continue;
    }
    std::string just;
    const std::size_t dash = rest.find("--", body_at);
    if (dash != std::string::npos) just = trim(rest.substr(dash + 2));
    // Wrapped justifications continue on directly following comment lines;
    // the annotation then anchors at the end of the block.
    int anchor = c.line;
    for (std::size_t k = ci + 1; k < comments.size(); ++k) {
      if (comments[k].line != anchor + 1 ||
          comments[k].text.find("plum-scale:") != std::string::npos) {
        break;
      }
      anchor = comments[k].line;
      if (!just.empty()) just += " " + trim(comments[k].text);
    }
    if (just.empty()) {
      out.push_back({file, c.line, kBadAnnot,
                     "plum-scale annotation '" + kind +
                         "' lacks a justification; every entry in the "
                         "scaling contract says *why* (see DESIGN.md)",
                     false,
                     ""});
      continue;
    }
    annots.push_back({anchor, kind, just, false});
  }
}

}  // namespace

const std::vector<CheckInfo>& scale_checks() {
  static const std::vector<CheckInfo> kChecks = {
      {kDense,
       "containers sized by a rank count (resize(nranks), P*P allocations) "
       "without a dist(P)/host-only annotation"},
      {kReplicated,
       "global-Index-keyed fields inside structs replicated once per rank "
       "(vector<S> somewhere in the project)"},
      {kInterproc,
       "helpers that mutate non-const-ref params, called from superstep "
       "lambdas with captured non-rank-indexed arguments"},
      {kAllRanksSend,
       "for loops bounded by a rank count that send to the loop variable "
       "inside a superstep lambda (all-to-all traffic or P-sized staging)"},
      {kBadAnnot, "malformed or unjustified plum-scale annotations"},
      {kUnusedAnnot, "annotations that no longer match any diagnostic"},
  };
  return kChecks;
}

LintResult scale_files(const std::vector<FileInput>& files,
                       const SymbolIndex& index) {
  LintResult result;
  result.files_scanned = static_cast<int>(files.size());

  std::map<std::string, std::vector<Diagnostic>> by_file;
  std::map<std::string, std::vector<Comment>> comments_by_file;
  for (const auto& f : files) {
    const LexResult lexed = lex(f.content);
    comments_by_file[f.path] = lexed.comments;
    auto& diags = by_file[f.path];
    check_dense_rank_container(index, f.path, lexed.tokens, diags);
    check_interprocedural(index, f.path, lexed.tokens, diags);
    check_all_ranks_send(index, f.path, lexed.tokens, diags);
  }
  check_replicated_global_state(index, by_file);

  for (auto& [path, diags] : by_file) {
    std::vector<Annotation> annots;
    parse_annotations(path, comments_by_file[path], annots, diags);
    for (auto& d : diags) {
      if (is_meta(d.check)) continue;
      for (auto& a : annots) {
        if (annotation_matches(a, d)) {
          d.suppressed = true;
          d.justification = (a.kind == "dist" ? std::string("dist(P)")
                                              : a.kind) +
                            ": " + a.justification;
          a.used = true;
          break;
        }
      }
    }
    for (const auto& a : annots) {
      // scratch is declarative (it documents arena-backed phase scratch
      // wherever it appears); only suppression kinds can go stale.
      if (!a.used && a.kind != "scratch") {
        diags.push_back({path, a.line, kUnusedAnnot,
                         "plum-scale annotation '" +
                             (a.kind == "dist" ? std::string("dist(P)")
                                               : a.kind) +
                             "' matches no diagnostic on this or the next "
                             "line; remove it so the scaling contract stays "
                             "honest",
                         false,
                         ""});
      }
    }
    result.diagnostics.insert(result.diagnostics.end(), diags.begin(),
                              diags.end());
  }

  std::sort(result.diagnostics.begin(), result.diagnostics.end());
  return result;
}

LintResult scale_files(const std::vector<FileInput>& files) {
  return scale_files(files, build_index(files));
}

LintResult scale_source(const std::string& path, const std::string& content) {
  return scale_files({{path, content}});
}

}  // namespace plumlint
