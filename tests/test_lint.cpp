// plum-lint's own tests: every check is demonstrated by a known-bad
// fixture in tests/lint_fixtures/ (including the historical
// `if (r == 0) ++phase` idiom verbatim), known-clean code produces zero
// diagnostics, and the suppression mechanism works and stays honest.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "linter.hpp"

namespace {

using plumlint::LintResult;

std::string fixture_path(const std::string& name) {
  return std::string(PLUM_LINT_FIXTURE_DIR) + "/" + name;
}

LintResult lint_fixture(const std::string& name) {
  std::ifstream in(fixture_path(name));
  EXPECT_TRUE(in.is_open()) << "missing fixture " << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return plumlint::lint_source(name, ss.str());
}

TEST(LintFixtures, RankGuardMutationHistoricalIdiom) {
  const LintResult r = lint_fixture("bad_rank_guard.cpp");
  EXPECT_EQ(r.count_of("rank-guard-mutation"), 2);
  EXPECT_EQ(r.unsuppressed_count(), 2) << plumlint::to_json(r);
}

TEST(LintFixtures, UnorderedIteration) {
  const LintResult r = lint_fixture("bad_unordered_iter.cpp");
  // Two unordered declarations + one range-for over one of them.
  EXPECT_EQ(r.count_of("unordered-iteration"), 3);
  EXPECT_EQ(r.unsuppressed_count(), 3) << plumlint::to_json(r);
}

TEST(LintFixtures, SharedAccumulator) {
  const LintResult r = lint_fixture("bad_shared_accumulator.cpp");
  EXPECT_EQ(r.count_of("shared-accumulator"), 3);
  // The rank-indexed writes in the same lambda must not be flagged.
  EXPECT_EQ(r.unsuppressed_count(), 3) << plumlint::to_json(r);
}

TEST(LintFixtures, GatherRowFunctionIsASuperstep) {
  // rt::gather's row function takes a Rank and an Outbox and runs inside
  // the gather's first superstep, so its captured writes are checked.
  const LintResult r = lint_fixture("bad_gather_row.cpp");
  EXPECT_EQ(r.count_of("shared-accumulator"), 1) << plumlint::to_json(r);
  EXPECT_EQ(r.unsuppressed_count(), 1) << plumlint::to_json(r);
}

TEST(LintFixtures, MetricRecordingInsideSuperstep) {
  const LintResult r = lint_fixture("bad_metrics_in_superstep.cpp");
  // add_sample / add_sample_int / set_int on the captured registry; the
  // rank-indexed slot and the post-run recording must not be flagged.
  EXPECT_EQ(r.count_of("shared-accumulator"), 3);
  EXPECT_EQ(r.unsuppressed_count(), 3) << plumlint::to_json(r);
}

TEST(LintFixtures, ScopeRecordingInsideSuperstep) {
  const LintResult r = lint_fixture("bad_scope_in_superstep.cpp");
  // record_event on the captured FlightRecorder; the rank-indexed
  // ScopeRecorder handle and the post-run host call must not be flagged.
  EXPECT_EQ(r.count_of("shared-accumulator"), 3);
  EXPECT_EQ(r.unsuppressed_count(), 3) << plumlint::to_json(r);
}

TEST(LintFixtures, NondeterminismSources) {
  const LintResult r = lint_fixture("bad_nondeterminism.cpp");
  EXPECT_EQ(r.count_of("nondeterminism-source"), 4);
  EXPECT_EQ(r.unsuppressed_count(), 4) << plumlint::to_json(r);
}

TEST(LintFixtures, WallClockInSuperstep) {
  const LintResult r = lint_fixture("bad_wallclock_in_superstep.cpp");
  // A Timer declaration + a steady_clock::now() call inside the lambda;
  // the host-side Timer in the second function must not be flagged.
  EXPECT_EQ(r.count_of("wall-clock-in-superstep"), 2);
  EXPECT_EQ(r.unsuppressed_count(), 2) << plumlint::to_json(r);
}

TEST(LintFixtures, RawFdInSuperstep) {
  const LintResult r = lint_fixture("bad_raw_fd_in_superstep.cpp");
  // A bare read(), a global-scope ::write(), and a bare socket send()
  // inside the lambda; the outbox.send member call and the host-side fd
  // use after the run must not be flagged.
  EXPECT_EQ(r.count_of("raw-fd-in-superstep"), 3);
  EXPECT_EQ(r.unsuppressed_count(), 3) << plumlint::to_json(r);
}

TEST(LintFixtures, RawStringsDoNotDesyncTheLexer) {
  const LintResult r = lint_fixture("raw_strings.cpp");
  // One violation per function, each sitting after raw strings whose
  // prefixed forms (u8R/LR/uR/UR) used to swallow the rest of the file.
  EXPECT_EQ(r.count_of("shared-accumulator"), 3) << plumlint::to_json(r);
  EXPECT_EQ(r.count_of("rank-guard-mutation"), 1) << plumlint::to_json(r);
  EXPECT_EQ(r.unsuppressed_count(), 4) << plumlint::to_json(r);
}

TEST(LintFixtures, NestedLambdaScopesAreTracked) {
  const LintResult r = lint_fixture("nested_lambdas.cpp");
  // Helper params / init-captures / by-value copies are closure-local;
  // the nested superstep body is judged once, with its own rank var.
  EXPECT_EQ(r.count_of("shared-accumulator"), 3) << plumlint::to_json(r);
  EXPECT_EQ(r.unsuppressed_count(), 3) << plumlint::to_json(r);
}

TEST(LintFixtures, MultiDeclaratorLocalsAreTracked) {
  const LintResult r = lint_fixture("multi_declarator.cpp");
  // Every declarator of `double pa = f(a), pb = f(b);` (and of a for
  // header) is local: only the genuine captured write is flagged.
  EXPECT_EQ(r.count_of("shared-accumulator"), 1) << plumlint::to_json(r);
  EXPECT_EQ(r.unsuppressed_count(), 1) << plumlint::to_json(r);
}

TEST(LintFixtures, CleanSuperstepHasNoDiagnostics) {
  const LintResult r = lint_fixture("clean_superstep.cpp");
  EXPECT_EQ(r.unsuppressed_count(), 0) << plumlint::to_json(r);
  EXPECT_TRUE(r.diagnostics.empty()) << plumlint::to_json(r);
}

TEST(LintFixtures, JustifiedSuppressionsSilenceDiagnostics) {
  const LintResult r = lint_fixture("suppressed.cpp");
  EXPECT_EQ(r.unsuppressed_count(), 0) << plumlint::to_json(r);
  EXPECT_EQ(r.suppressed_count(), 3);
  for (const auto& d : r.diagnostics) {
    EXPECT_TRUE(d.suppressed);
    EXPECT_FALSE(d.justification.empty()) << d.check;
  }
}

TEST(LintFixtures, SuppressionHygiene) {
  const LintResult r = lint_fixture("bad_suppression.cpp");
  EXPECT_EQ(r.count_of("bad-suppression"), 2) << plumlint::to_json(r);
  EXPECT_EQ(r.count_of("unused-suppression"), 1);
  // The unjustified allow() does not suppress the rand() finding.
  EXPECT_EQ(r.count_of("nondeterminism-source"), 1);
}

TEST(LintFixtures, WholeDirectoryLintsWithSameTotals) {
  // Linting the fixtures together must not change per-check totals: names
  // declared unordered in one file only taint *member accesses* elsewhere,
  // so clean_superstep's ordered `shared` map stays clean even though
  // bad_unordered_iter declares an unordered member of the same name.
  std::vector<plumlint::FileInput> files;
  for (const char* name :
       {"bad_rank_guard.cpp", "bad_unordered_iter.cpp",
        "bad_shared_accumulator.cpp", "bad_metrics_in_superstep.cpp",
        "bad_scope_in_superstep.cpp", "bad_nondeterminism.cpp",
        "bad_wallclock_in_superstep.cpp",
        "bad_raw_fd_in_superstep.cpp", "clean_superstep.cpp",
        "suppressed.cpp", "bad_suppression.cpp", "raw_strings.cpp",
        "nested_lambdas.cpp", "multi_declarator.cpp",
        "bad_gather_row.cpp"}) {
    std::ifstream in(fixture_path(name));
    ASSERT_TRUE(in.is_open()) << name;
    std::ostringstream ss;
    ss << in.rdbuf();
    files.push_back({name, ss.str()});
  }
  const LintResult r = plumlint::lint_files(files);
  EXPECT_EQ(r.count_of("rank-guard-mutation"), 3);  // 2 + raw_strings
  EXPECT_EQ(r.count_of("unordered-iteration"), 3);
  // 3 writes + 3 metric calls + 3 record_event calls + 3 raw_strings +
  // 3 nested_lambdas + 1 multi_declarator + 1 gather row.
  EXPECT_EQ(r.count_of("shared-accumulator"), 17);
  EXPECT_EQ(r.count_of("nondeterminism-source"), 5);  // 4 + rand() above
  EXPECT_EQ(r.count_of("wall-clock-in-superstep"), 2);
  EXPECT_EQ(r.count_of("raw-fd-in-superstep"), 3);
  EXPECT_EQ(r.suppressed_count(), 3);
  EXPECT_EQ(r.files_scanned, 15);
}

// --- API-level cases ---------------------------------------------------------

TEST(LintApi, VerbatimPhaseCounterIdiom) {
  const std::string src = R"(
    void f(plum::rt::Engine& eng) {
      int phase = 0;
      eng.run([&](Rank r, const rt::Inbox& in, rt::Outbox& out) {
        if (r == 0) ++phase;
        return phase < 3;
      });
    }
  )";
  const LintResult r = plumlint::lint_source("inline.cpp", src);
  EXPECT_EQ(r.count_of("rank-guard-mutation"), 1) << plumlint::to_json(r);
}

TEST(LintApi, ReversedComparisonAndCompoundCondition) {
  const std::string src = R"(
    void f(plum::rt::Engine& eng, bool flag) {
      int x = 0;
      eng.run([&](Rank rank, const rt::Inbox& in, rt::Outbox& out) {
        if (0 == rank && flag) { x += 1; }
        return false;
      });
    }
  )";
  const LintResult r = plumlint::lint_source("inline.cpp", src);
  EXPECT_EQ(r.count_of("rank-guard-mutation"), 1) << plumlint::to_json(r);
}

TEST(LintApi, OutboxStepComparisonIsNotARankGuard) {
  const std::string src = R"(
    void f(plum::rt::Engine& eng, std::vector<int>& acc) {
      eng.run([&](Rank r, const rt::Inbox& in, rt::Outbox& out) {
        if (out.step() == 0) {
          acc[static_cast<std::size_t>(r)] += 1;
        }
        return false;
      });
    }
  )";
  const LintResult r = plumlint::lint_source("inline.cpp", src);
  EXPECT_EQ(r.unsuppressed_count(), 0) << plumlint::to_json(r);
}

TEST(LintApi, MutatingMethodCallsRespectRankIndexing) {
  const std::string src = R"(
    void f(plum::rt::Engine& eng, std::vector<std::vector<int>>& acc,
           std::vector<int>& log) {
      eng.run([&](Rank r, const rt::Inbox& in, rt::Outbox& out) {
        acc[static_cast<std::size_t>(r)].push_back(1);  // rank-owned row: OK
        std::vector<int> scratch;
        scratch.push_back(2);  // local: OK
        log.push_back(3);      // shared container: flagged
        return false;
      });
    }
  )";
  const LintResult r = plumlint::lint_source("inline.cpp", src);
  EXPECT_EQ(r.count_of("shared-accumulator"), 1) << plumlint::to_json(r);
  EXPECT_EQ(r.unsuppressed_count(), 1) << plumlint::to_json(r);
}

TEST(LintApi, GuardedMetricRecordingIsRankGuardMutation) {
  const std::string src = R"(
    void f(plum::rt::Engine& eng, plum::obs::MetricsRegistry& reg) {
      eng.run([&](Rank r, const rt::Inbox& in, rt::Outbox& out) {
        if (r == 0) {
          reg.add_sample("imbalance", 1.0);  // still sequential-order-reliant
        }
        return false;
      });
    }
  )";
  const LintResult r = plumlint::lint_source("inline.cpp", src);
  EXPECT_EQ(r.count_of("rank-guard-mutation"), 1) << plumlint::to_json(r);
}

TEST(LintApi, NonSuperstepLambdaIsIgnored) {
  // No Rank/Outbox parameters: plain callbacks may mutate captures.
  const std::string src = R"(
    void f(std::vector<int>& v) {
      int sum = 0;
      std::for_each(v.begin(), v.end(), [&](int x) { sum += x; });
    }
  )";
  const LintResult r = plumlint::lint_source("inline.cpp", src);
  EXPECT_EQ(r.unsuppressed_count(), 0) << plumlint::to_json(r);
}

TEST(LintApi, SameLineSuppressionWorks) {
  const std::string src =
      "int f() { return std::rand(); }  "
      "// plum-lint: allow(nondeterminism-source) -- fixture\n";
  const LintResult r = plumlint::lint_source("inline.cpp", src);
  EXPECT_EQ(r.unsuppressed_count(), 0) << plumlint::to_json(r);
  EXPECT_EQ(r.suppressed_count(), 1);
}

TEST(LintApi, IncludeLineIsNotFlagged) {
  const LintResult r = plumlint::lint_source(
      "inline.cpp", "#include <unordered_map>\n#include <ctime>\n");
  EXPECT_EQ(r.unsuppressed_count(), 0) << plumlint::to_json(r);
}

TEST(LintApi, JsonReportShape) {
  const LintResult r =
      plumlint::lint_source("inline.cpp", "int f() { return std::rand(); }\n");
  const std::string json = plumlint::to_json(r);
  EXPECT_NE(json.find("\"files_scanned\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"unsuppressed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"nondeterminism-source\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 1"), std::string::npos);
}

TEST(LintApi, CheckRegistryCoversContract) {
  const auto& cs = plumlint::checks();
  auto has = [&](const std::string& n) {
    for (const auto& c : cs) {
      if (n == c.name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("rank-guard-mutation"));
  EXPECT_TRUE(has("unordered-iteration"));
  EXPECT_TRUE(has("shared-accumulator"));
  EXPECT_TRUE(has("nondeterminism-source"));
  EXPECT_TRUE(has("wall-clock-in-superstep"));
  EXPECT_TRUE(has("bad-suppression"));
  EXPECT_TRUE(has("unused-suppression"));
}

}  // namespace
