#pragma once
// Shared token-stream machinery for the plum-lint and plum-scale passes.
// Everything here used to live in linter.cpp's anonymous namespace; the
// project-wide scalability analyzer (scale.cpp) and its symbol indexer
// (index.cpp) need the same declaration parsing, lvalue walking, and
// superstep-lambda discovery, so the helpers are promoted to a small
// shared library. Semantics are token-level and deliberately approximate:
// misses make checks stricter, never looser.

#include <cstddef>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lexer.hpp"

namespace plumlint {

using Tokens = std::vector<Token>;

inline bool is(const Token& t, const char* text) { return t.text == text; }

/// Fundamental / fixed-width type keywords recognized at declaration heads.
const std::set<std::string>& type_keywords();

/// Statement keywords that can never start a declaration.
const std::set<std::string>& stmt_keywords();

/// Method names that mutate their receiver (container mutators plus the
/// obs recording API). Read-only lookups are deliberately absent.
const std::set<std::string>& mutating_methods();

/// i at "<": index just past the matching ">", or i + 1 if this `<` does
/// not look like a template list (no match before ; { }).
std::size_t skip_template(const Tokens& t, std::size_t i);

/// i at an opening bracket: index of the matching closer (or end).
std::size_t match_forward(const Tokens& t, std::size_t i, const char* open,
                          const char* close);

std::string trim(const std::string& s);

struct DeclNames {
  std::vector<std::string> names;
  bool matched = false;
};

/// Tries to parse a declaration starting at `i` (statement start). Handles
/// `const T& x = ...`, `std::vector<T> x(...)`, `auto it = ...`,
/// structured bindings `const auto& [a, b] : ...`, multi-keyword
/// fundamentals, and every top-level declarator of `T a = f(x), b = g(y);`
/// (initializers are skipped as balanced groups). Does not need to be complete — misses only make the
/// mutation checks slightly stricter, never looser.
DeclNames try_parse_decl(const Tokens& t, std::size_t i);

struct LhsInfo {
  std::string base;
  bool rank_indexed = false;
  bool ok = false;
};

/// Walks an lvalue access path backward from `j` (inclusive) to its base
/// identifier, noting whether any subscript on the path mentions the rank
/// variable: `counts[size_t(r)] += ..` is per-rank state, `counts[i] += ..`
/// is not.
LhsInfo parse_lhs_backward(const Tokens& t, std::size_t j, std::size_t begin,
                           const std::string& rank_var);

/// Forward variant for prefix ++/--: ++x, ++x.y[r].
LhsInfo parse_lhs_forward(const Tokens& t, std::size_t j,
                          const std::string& rank_var);

bool is_assign_op(const Token& t);

struct SuperstepLambda {
  std::size_t body_begin = 0;  ///< index of the opening '{'
  std::size_t body_end = 0;    ///< index of the matching '}'
  std::string rank_var;        ///< may be empty (unnamed Rank param)
  std::vector<std::string> param_names;
};

/// Token positions a lambda-introducer `[` can legally follow. Shared by
/// the superstep finder and the nested-lambda scope tracker so both agree
/// on what is a lambda versus a subscript.
bool lambda_position(const Token& prev);

/// Names a nested lambda owns: its parameters, init-captures, and by-value
/// copies. Writes to these are closure-local, not mutations of the
/// enclosing superstep's captured state. By-reference captures are
/// deliberately excluded — writing through them still aliases outer state.
std::vector<std::string> nested_lambda_own_names(const Tokens& t,
                                                 std::size_t cap_open,
                                                 std::size_t cap_end);

/// Finds lambdas whose parameter list mentions both Rank and Outbox — the
/// rt::Engine::StepFn shape all superstep programs use.
std::vector<SuperstepLambda> find_superstep_lambdas(const Tokens& t);

/// Body spans of *other* superstep lambdas nested inside `lam`. Those are
/// analyzed separately with their own rank variable; scanning them with the
/// outer lambda's rank would both double-report and mis-judge rank indexing.
using SkipSpans = std::vector<std::pair<std::size_t, std::size_t>>;

SkipSpans nested_superstep_spans(const std::vector<SuperstepLambda>& all,
                                 const SuperstepLambda& lam);

/// If `i` opens a nested superstep body, the index of its closing brace
/// (caller jumps there); otherwise `i` unchanged.
std::size_t skip_to(const SkipSpans& skip, std::size_t i);

void json_escape(std::ostream& os, const std::string& s);

}  // namespace plumlint
