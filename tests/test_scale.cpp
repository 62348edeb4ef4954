// plum-scale's own tests: the symbol index (structs, forward decls,
// same-name fields, rank counts, one-level mutation summaries) is probed
// directly, each check is demonstrated by an exact-count fixture in
// tests/scale_fixtures/ — including the pre-PR-7 dense CommMatrix idiom
// verbatim — and the whole-directory pass pins cross-TU behavior and
// include-order independence.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "index.hpp"
#include "scale.hpp"

namespace {

using plumlint::FileInput;
using plumlint::LintResult;
using plumlint::SymbolIndex;

std::string read_fixture(const std::string& name) {
  std::ifstream in(std::string(PLUM_SCALE_FIXTURE_DIR) + "/" + name);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

FileInput fixture_input(const std::string& name) {
  return {name, read_fixture(name)};
}

std::vector<FileInput> all_fixtures() {
  return {fixture_input("all_ranks_send.cpp"), fixture_input("dense_rank.cpp"),
          fixture_input("helpers_tu.cpp"),
          fixture_input("replicated_state.cpp"),
          fixture_input("scratch_arena.cpp"),
          fixture_input("superstep_tu.cpp")};
}

// --- symbol index -------------------------------------------------------------

TEST(SymbolIndex, StructFieldsAndForwardDeclarations) {
  const SymbolIndex idx = plumlint::build_index(
      {{"a.hpp",
        "struct Later;\n"
        "struct Mesh { int nv; std::map<Index, double> wts; };\n"
        "struct Later { double x; };\n"}});
  // The forward declaration of Later must not shadow (or duplicate) the
  // real definition on line 3.
  ASSERT_NE(idx.find_struct("Later"), nullptr);
  EXPECT_EQ(idx.find_struct("Later")->line, 3);
  ASSERT_EQ(idx.find_struct("Later")->fields.size(), 1u);

  const plumlint::StructInfo* mesh = idx.find_struct("Mesh");
  ASSERT_NE(mesh, nullptr);
  ASSERT_EQ(mesh->fields.size(), 2u);
  EXPECT_EQ(mesh->fields[0].name, "nv");
  EXPECT_EQ(mesh->fields[1].name, "wts");
  EXPECT_NE(mesh->fields[1].type_text.find("map < Index"), std::string::npos);
}

TEST(SymbolIndex, SameNameFieldsInDifferentStructsStayDistinct) {
  const SymbolIndex idx = plumlint::build_index(
      {{"a.hpp", "struct A { int count; };\n"},
       {"b.hpp", "struct B { double count; };\n"}});
  ASSERT_NE(idx.find_struct("A"), nullptr);
  ASSERT_NE(idx.find_struct("B"), nullptr);
  EXPECT_EQ(idx.find_struct("A")->fields[0].type_text, "int");
  EXPECT_EQ(idx.find_struct("B")->fields[0].type_text, "double");
}

TEST(SymbolIndex, SameNameStructsInDifferentFilesKeepBothDefinitions) {
  const SymbolIndex idx = plumlint::build_index(
      {{"x.hpp", "struct Cfg { int a; };\n"},
       {"y.hpp", "struct Cfg { double b; };\n"}});
  // Lexicographically first file is primary; the other keys as Cfg@file.
  ASSERT_NE(idx.find_struct("Cfg"), nullptr);
  EXPECT_EQ(idx.find_struct("Cfg")->file, "x.hpp");
  ASSERT_NE(idx.find_struct("Cfg@y.hpp"), nullptr);
  EXPECT_EQ(idx.find_struct("Cfg@y.hpp")->fields[0].name, "b");
}

TEST(SymbolIndex, MutationSummariesTrackNonConstRefParamsOnly) {
  const SymbolIndex idx = plumlint::build_index({fixture_input(
      "helpers_tu.cpp")});
  const auto& bump = idx.functions.at("bump_total");
  ASSERT_EQ(bump.size(), 1u);
  EXPECT_EQ(bump[0].param_names,
            (std::vector<std::string>{"total", "x"}));
  EXPECT_EQ(bump[0].mutated_params, (std::vector<std::size_t>{0}));

  const auto& log = idx.functions.at("log_value");
  EXPECT_EQ(log[0].mutated_params, (std::vector<std::size_t>{0}));

  const auto& ro = idx.functions.at("read_only");
  EXPECT_TRUE(ro[0].mutated_params.empty());
}

TEST(SymbolIndex, RankCountNamesArePerFilePlusConventional) {
  const SymbolIndex idx = plumlint::build_index(
      {{"a.cpp", "void f(Rank nparts) { (void)nparts; }\n"
                 "void g() { const auto np = eng.nranks(); (void)np; }\n"},
       {"b.cpp", "void h(int nparts) { (void)nparts; }\n"}});
  EXPECT_TRUE(idx.is_rank_count("a.cpp", "nparts"));
  EXPECT_TRUE(idx.is_rank_count("a.cpp", "np"));
  // Rank-typed in a.cpp must not taint the unrelated int in b.cpp.
  EXPECT_FALSE(idx.is_rank_count("b.cpp", "nparts"));
  // Conventional spellings count everywhere.
  EXPECT_TRUE(idx.is_rank_count("b.cpp", "nranks"));
  EXPECT_TRUE(idx.is_rank_count("b.cpp", "world_size"));
}

TEST(SymbolIndex, IncludeOrderDoesNotChangeTheIndex) {
  std::vector<FileInput> files = all_fixtures();
  const SymbolIndex forward = plumlint::build_index(files);
  std::reverse(files.begin(), files.end());
  const SymbolIndex reversed = plumlint::build_index(files);

  ASSERT_EQ(forward.structs.size(), reversed.structs.size());
  for (const auto& [key, s] : forward.structs) {
    ASSERT_TRUE(reversed.structs.count(key)) << key;
    EXPECT_EQ(s.fields.size(), reversed.structs.at(key).fields.size());
  }
  ASSERT_EQ(forward.functions.size(), reversed.functions.size());
  for (const auto& [name, defs] : forward.functions) {
    ASSERT_TRUE(reversed.functions.count(name)) << name;
    ASSERT_EQ(defs.size(), reversed.functions.at(name).size());
    for (std::size_t i = 0; i < defs.size(); ++i) {
      EXPECT_EQ(defs[i].file, reversed.functions.at(name)[i].file);
      EXPECT_EQ(defs[i].mutated_params,
                reversed.functions.at(name)[i].mutated_params);
    }
  }
  ASSERT_EQ(forward.replications.size(), reversed.replications.size());
  for (std::size_t i = 0; i < forward.replications.size(); ++i) {
    EXPECT_EQ(forward.replications[i].struct_name,
              reversed.replications[i].struct_name);
    EXPECT_EQ(forward.replications[i].file, reversed.replications[i].file);
  }
}

// --- checks over fixtures -----------------------------------------------------

TEST(ScaleFixtures, DenseRankContainerExactCounts) {
  const LintResult r = plumlint::scale_files({fixture_input(
      "dense_rank.cpp")});
  // 6 rank-count-sized containers, 2 acknowledged by annotations; the
  // verbatim dense CommMatrix idiom contributes the two P*P products.
  EXPECT_EQ(r.count_of("dense-rank-container", true), 6)
      << plumlint::scale_to_json(r);
  EXPECT_EQ(r.count_of("dense-rank-container"), 4);
  EXPECT_EQ(r.count_of("bad-annotation"), 2);
  EXPECT_EQ(r.count_of("unused-annotation"), 1);
  EXPECT_EQ(r.suppressed_count(), 2);
  int products = 0;
  for (const auto& d : r.diagnostics) {
    if (!d.suppressed && d.message.find("P * P") != std::string::npos) {
      ++products;
    }
  }
  EXPECT_EQ(products, 2);
}

TEST(ScaleFixtures, ReplicatedGlobalStateExactCounts) {
  const LintResult r = plumlint::scale_files({fixture_input(
      "replicated_state.cpp")});
  EXPECT_EQ(r.count_of("replicated-global-state", true), 2)
      << plumlint::scale_to_json(r);
  EXPECT_EQ(r.count_of("replicated-global-state"), 1);
  EXPECT_EQ(r.suppressed_count(), 1);
  // The non-replicated GlobalDirectory must contribute nothing.
  for (const auto& d : r.diagnostics) {
    EXPECT_EQ(d.message.find("GlobalDirectory"), std::string::npos);
  }
}

TEST(ScaleFixtures, InterproceduralNeedsTheCrossFileIndex) {
  // With both TUs the helper summaries reach the superstep callsites...
  const LintResult both = plumlint::scale_files(
      {fixture_input("helpers_tu.cpp"), fixture_input("superstep_tu.cpp")});
  EXPECT_EQ(both.count_of("interprocedural-superstep-mutation"), 2)
      << plumlint::scale_to_json(both);

  // ...and input order cannot matter (the index is built before checks).
  const LintResult swapped = plumlint::scale_files(
      {fixture_input("superstep_tu.cpp"), fixture_input("helpers_tu.cpp")});
  EXPECT_EQ(swapped.count_of("interprocedural-superstep-mutation"), 2);

  // Without the helper TU there is no summary, hence no diagnostic: this
  // is exactly the false negative the project-wide index removes.
  const LintResult alone =
      plumlint::scale_files({fixture_input("superstep_tu.cpp")});
  EXPECT_EQ(alone.count_of("interprocedural-superstep-mutation"), 0);
}

TEST(ScaleFixtures, ScratchAnnotationExactCounts) {
  const LintResult r =
      plumlint::scale_files({fixture_input("scratch_arena.cpp")});
  // 3 rank-sized containers: one acknowledged by `scratch`, one plain, one
  // next to a justification-less scratch (malformed, so not suppressed).
  EXPECT_EQ(r.count_of("dense-rank-container", true), 3)
      << plumlint::scale_to_json(r);
  EXPECT_EQ(r.count_of("dense-rank-container"), 2);
  EXPECT_EQ(r.count_of("bad-annotation"), 1);
  // scratch is declarative: the marker on the non-diagnostic line in
  // declarative_marker() must not surface as unused-annotation.
  EXPECT_EQ(r.count_of("unused-annotation"), 0);
  EXPECT_EQ(r.suppressed_count(), 1);
}

TEST(ScaleFixtures, AllRanksSendExactCounts) {
  const LintResult r =
      plumlint::scale_files({fixture_input("all_ranks_send.cpp")});
  // The all-to-all and the guarded P-bucket loop are flagged, the root
  // broadcast is suppressed by its allow(); the peer-list loops and the
  // host loop outside any superstep lambda stay clean.
  EXPECT_EQ(r.count_of("all-ranks-send", true), 3)
      << plumlint::scale_to_json(r);
  EXPECT_EQ(r.count_of("all-ranks-send"), 2);
  EXPECT_EQ(r.suppressed_count(), 1);
  EXPECT_EQ(r.diagnostics.size(), 3u);
  std::vector<int> lines;
  for (const auto& d : r.diagnostics) {
    if (!d.suppressed) lines.push_back(d.line);
  }
  EXPECT_EQ(lines, (std::vector<int>{20, 31}));
}

TEST(ScaleFixtures, WholeDirectoryTotals) {
  const LintResult r = plumlint::scale_files(all_fixtures());
  EXPECT_EQ(r.files_scanned, 6);
  EXPECT_EQ(r.count_of("dense-rank-container", true), 9);
  EXPECT_EQ(r.count_of("replicated-global-state", true), 2);
  EXPECT_EQ(r.count_of("interprocedural-superstep-mutation", true), 2);
  EXPECT_EQ(r.count_of("all-ranks-send", true), 3);
  EXPECT_EQ(r.count_of("bad-annotation", true), 3);
  EXPECT_EQ(r.count_of("unused-annotation", true), 1);
  EXPECT_EQ(r.suppressed_count(), 5) << plumlint::scale_to_json(r);
}

TEST(ScaleFixtures, JsonReportCarriesScaleCounts) {
  const LintResult r = plumlint::scale_files(all_fixtures());
  const std::string json = plumlint::scale_to_json(r);
  EXPECT_NE(json.find("\"dense-rank-container\": 9"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"replicated-global-state\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"interprocedural-superstep-mutation\": 2"),
            std::string::npos);
  EXPECT_NE(json.find("\"all-ranks-send\": 3"), std::string::npos);
}

}  // namespace
