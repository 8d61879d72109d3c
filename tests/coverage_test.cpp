//===- tests/coverage_test.cpp - Coverage registry and collectors --------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// The coverage observability layer: the bin registry itself (declare /
/// hit / merge / snapshot), its JSON serializations, the three collectors
/// (static IR coverage from the verifier, isel pattern coverage from the
/// selector, dynamic toggle coverage from the WaveSink), session
/// isolation, and the batch-level merge that backs `reticle-batch-v1`'s
/// coverage key.
///
//===----------------------------------------------------------------------===//

#include "obs/Coverage.h"

#include "core/Batch.h"
#include "core/Compiler.h"
#include "core/Session.h"
#include "core/Stats.h"
#include "device/Device.h"
#include "interp/Wave.h"
#include "obs/Json.h"

#include <gtest/gtest.h>

using namespace reticle;
using obs::Coverage;
using obs::CoverageSnapshot;
using obs::Json;

namespace {

const char *MacSource = R"(
  def mac(a:i8, b:i8, c:i8, en:bool) -> (y:i8) {
    t0:i8 = mul(a, b) @??;
    t1:i8 = add(t0, c) @??;
    y:i8 = reg[0](t1, en) @??;
  }
)";

//===----------------------------------------------------------------------===//
// Serialization (pure functions over a snapshot)
//===----------------------------------------------------------------------===//

TEST(CoverageJson, HitCountsExcludeDeclaredOnlyBins) {
  CoverageSnapshot Snap;
  Snap["s"]["hole"] = 0;
  Snap["s"]["hit1"] = 1;
  Snap["s"]["hit2"] = 4;
  Json Body = obs::coverageJson(Snap);

  const Json *Spaces = Body.find("spaces");
  ASSERT_NE(Spaces, nullptr);
  const Json *S = Spaces->find("s");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->find("hit")->asInt(), 2);
  EXPECT_EQ(S->find("total")->asInt(), 3);
  EXPECT_EQ(S->find("bins")->find("hole")->asInt(), 0);
  EXPECT_EQ(S->find("bins")->find("hit2")->asInt(), 4);

  const Json *Totals = Body.find("totals");
  ASSERT_NE(Totals, nullptr);
  EXPECT_EQ(Totals->find("spaces")->asInt(), 1);
  EXPECT_EQ(Totals->find("bins")->asInt(), 3);
  EXPECT_EQ(Totals->find("hit")->asInt(), 2);
}

TEST(CoverageJson, StandaloneDocCarriesSchemaAndProgram) {
  CoverageSnapshot Snap;
  Snap["s"]["b"] = 1;
  Json Doc = obs::coverageDoc("mac.ret", Snap);
  EXPECT_EQ(Doc.find("schema")->asString(), "reticle-coverage-v1");
  EXPECT_EQ(Doc.find("program")->asString(), "mac.ret");
  ASSERT_NE(Doc.find("spaces"), nullptr);
  ASSERT_NE(Doc.find("totals"), nullptr);
}

TEST(CoverageCollectors, SessionsAreIsolatedAndDeterministic) {
  auto CompileOnce = [] {
    core::CompileSession Session;
    core::CompileOptions Options;
    Options.Dev = device::Device::small();
    Result<core::CompileResult> R =
        core::compileSource(MacSource, "mac.ret", Options, Session);
    EXPECT_TRUE(R.ok()) << R.error();
    return Session.coverage().snapshot();
  };
  CoverageSnapshot A = CompileOnce();
  CoverageSnapshot B = CompileOnce();
  // Two private sessions over the same source record identical coverage —
  // nothing leaked across, nothing nondeterministic crept in.
  EXPECT_EQ(A, B);
}

//===----------------------------------------------------------------------===//
// The registry
//===----------------------------------------------------------------------===//

TEST(CoverageRegistry, DeclareCreatesZeroBinsHitIncrements) {
  Coverage Cov;
  EXPECT_TRUE(Cov.empty());
  Cov.declare("space", "never");
  Cov.hit("space", "twice");
  Cov.hit("space", "twice");
  Cov.hit("other", "bulk", 5);
  EXPECT_FALSE(Cov.empty());

  CoverageSnapshot S = Cov.snapshot();
  ASSERT_EQ(S.size(), 2u);
  EXPECT_EQ(S.at("space").at("never"), 0u);
  EXPECT_EQ(S.at("space").at("twice"), 2u);
  EXPECT_EQ(S.at("other").at("bulk"), 5u);
}

TEST(CoverageRegistry, DeclareNeverLowersAHitBin) {
  Coverage Cov;
  Cov.hit("s", "b");
  Cov.declare("s", "b");
  EXPECT_EQ(Cov.snapshot().at("s").at("b"), 1u);
}

TEST(CoverageRegistry, MergeUnionsSpacesAndSumsCounts) {
  Coverage A, B;
  A.hit("s", "shared", 2);
  A.declare("s", "only_a");
  B.hit("s", "shared", 3);
  B.hit("t", "only_b");
  A.merge(B);

  CoverageSnapshot S = A.snapshot();
  EXPECT_EQ(S.at("s").at("shared"), 5u);
  EXPECT_EQ(S.at("s").at("only_a"), 0u);
  EXPECT_EQ(S.at("t").at("only_b"), 1u);
  // B is untouched.
  EXPECT_EQ(B.snapshot().at("s").at("shared"), 3u);
}

TEST(CoverageRegistry, MergeSpaceMovesNewSpacesAndSumsExisting) {
  Coverage Cov;
  obs::CoverageBins Fresh{{"a", 1}, {"b", 2}};
  Cov.mergeSpace("new", std::move(Fresh));
  Cov.hit("old", "a", 4);
  Cov.mergeSpace("old", obs::CoverageBins{{"a", 1}, {"c", 3}});
  CoverageSnapshot S = Cov.snapshot();
  EXPECT_EQ(S.at("new"), (obs::CoverageBins{{"a", 1}, {"b", 2}}));
  EXPECT_EQ(S.at("old"), (obs::CoverageBins{{"a", 5}, {"c", 3}}));
}

TEST(CoverageRegistry, LookupsBySubstringViewMatchWholeNames) {
  // Hits through views into a larger buffer must land on the exact bin,
  // not on a prefix or a neighbour.
  Coverage Cov;
  std::string Buffer = "isel.patternXaddY";
  std::string_view Space(Buffer.data(), 12);
  std::string_view Bin(Buffer.data() + 13, 3);
  Cov.hit(Space, Bin);
  Cov.hit(Space, Bin, 2);
  Cov.declare(Space, Bin);
  Cov.declare(Space, std::string_view(Buffer.data() + 13, 2));
  CoverageSnapshot S = Cov.snapshot();
  ASSERT_EQ(S.size(), 1u);
  EXPECT_EQ(S.at("isel.pattern"), (obs::CoverageBins{{"ad", 0}, {"add", 3}}));
}

TEST(CoverageRegistry, ResetDropsEverything) {
  Coverage Cov;
  Cov.hit("s", "b");
  Cov.reset();
  EXPECT_TRUE(Cov.empty());
  EXPECT_TRUE(Cov.snapshot().empty());
}

//===----------------------------------------------------------------------===//
// Collectors: static IR + isel pattern coverage through a compile
//===----------------------------------------------------------------------===//

TEST(CoverageCollectors, CompileRecordsIrAndIselSpaces) {
  core::CompileSession Session;
  core::CompileOptions Options;
  Options.Dev = device::Device::small();
  Result<core::CompileResult> R =
      core::compileSource(MacSource, "mac.ret", Options, Session);
  ASSERT_TRUE(R.ok()) << R.error();

  // The verifier accepts mac twice per compile (in the parse pass and
  // when selection builds its dataflow graph), so each of its three
  // instructions lands in every IR space twice.
  CoverageSnapshot S = Session.coverage().snapshot();
  EXPECT_EQ(S.at("ir.op"),
            (obs::CoverageBins{{"add", 2}, {"mul", 2}, {"reg", 2}}));
  EXPECT_EQ(S.at("ir.op_type"),
            (obs::CoverageBins{{"add:i8", 2}, {"mul:i8", 2}, {"reg:i8", 2}}));
  EXPECT_EQ(S.at("ir.lanes"), (obs::CoverageBins{{"1", 6}}));
  EXPECT_EQ(S.at("ir.resource"), (obs::CoverageBins{{"??", 6}}));

  // The selector declared every selectable pattern up front, so the space
  // is larger than what one small program can hit — never-fired patterns
  // are zero-count holes. The one tree is covered by muladdreg, whose
  // memoized sub-covers also won their own nodes.
  ASSERT_TRUE(S.count("isel.pattern"));
  obs::CoverageBins Hit;
  uint64_t Holes = 0;
  for (const auto &[Bin, Count] : S.at("isel.pattern"))
    if (Count)
      Hit.emplace(Bin, Count);
    else
      ++Holes;
  EXPECT_EQ(Hit, (obs::CoverageBins{{"mul", 1}, {"muladd", 1},
                                    {"muladdreg", 1}}));
  EXPECT_EQ(Holes, 23u);
}

TEST(CoverageCollectors, IselErrorKeepsThePatternsHitBeforeIt) {
  // y's tree is covered before z's resource constraint fails selection;
  // the session still records y's win and the declared holes, since a
  // batch sums failed items' coverage too.
  const char *Source = R"(
    def f(a:i8, b:i8, c:i8) -> (y:i8, z:i8) {
      y:i8 = add(a, b) @??;
      z:i8 = and(a, c) @dsp;
    }
  )";
  core::CompileSession Session;
  core::CompileOptions Options;
  Options.Dev = device::Device::small();
  Result<core::CompileResult> R =
      core::compileSource(Source, "rejected.ret", Options, Session);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().find("resource constraint is unsatisfiable"),
            std::string::npos)
      << R.error();

  CoverageSnapshot S = Session.coverage().snapshot();
  EXPECT_EQ(S.at("ir.op"), (obs::CoverageBins{{"add", 2}, {"and", 2}}));
  EXPECT_EQ(S.at("ir.resource"), (obs::CoverageBins{{"??", 2}, {"dsp", 2}}));
  ASSERT_TRUE(S.count("isel.pattern"));
  uint64_t Hits = 0;
  for (const auto &[Bin, Count] : S.at("isel.pattern"))
    Hits += Count;
  EXPECT_EQ(S.at("isel.pattern").size(), 26u);
  EXPECT_EQ(S.at("isel.pattern").at("add"), 1u);
  EXPECT_EQ(Hits, 1u);
}

TEST(CoverageCollectors, StatsDocEmbedsTheCoverageSection) {
  core::CompileSession Session;
  core::CompileOptions Options;
  Options.Dev = device::Device::small();
  Result<core::CompileResult> R =
      core::compileSource(MacSource, "mac.ret", Options, Session);
  ASSERT_TRUE(R.ok()) << R.error();

  Json Doc = core::statsJson(R.value(), "mac.ret", Session.context());
  const Json *Cov = Doc.find("coverage");
  ASSERT_NE(Cov, nullptr);
  const Json *Spaces = Cov->find("spaces");
  ASSERT_NE(Spaces, nullptr);
  EXPECT_NE(Spaces->find("ir.op"), nullptr);
  EXPECT_NE(Spaces->find("isel.pattern"), nullptr);
}

//===----------------------------------------------------------------------===//
// ToggleCoverageSink: per-bit edge bins
//===----------------------------------------------------------------------===//

TEST(ToggleCoverage, RecordsPerBitEdges) {
  Coverage Cov;
  sim::ToggleCoverageSink Sink(Cov);
  sim::WaveRecorder Rec(&Sink, obs::defaultContext());
  ASSERT_TRUE(Rec.begin({sim::WaveSignal("y", 2)}).ok());
  Rec.stage(0, {false, true}); // first observation only seeds
  Rec.cycle(0);
  Rec.stage(0, {true, false}); // bit0 0->1, bit1 1->0
  Rec.cycle(1);
  Rec.stage(0, {true, false}); // unchanged: no edges
  Rec.cycle(2);
  // Bins are named when the run finishes, not per edge.
  EXPECT_TRUE(Cov.empty());
  ASSERT_TRUE(Rec.finish(false).ok());

  CoverageSnapshot S = Cov.snapshot();
  ASSERT_TRUE(S.count("sim.toggle"));
  const auto &Bins = S.at("sim.toggle");
  EXPECT_EQ(Bins.at("y[0]:01"), 1u);
  EXPECT_EQ(Bins.at("y[1]:10"), 1u);
  // The edges never seen stay absent (bins appear on first hit).
  EXPECT_EQ(Bins.count("y[0]:10"), 0u);
  EXPECT_EQ(Bins.count("y[1]:01"), 0u);
}

TEST(ToggleCoverage, NarrowedValueReadsAsZeroBits) {
  Coverage Cov;
  sim::ToggleCoverageSink Sink(Cov);
  sim::WaveRecorder Rec(&Sink, obs::defaultContext());
  ASSERT_TRUE(Rec.begin({sim::WaveSignal("w", 2)}).ok());
  Rec.stage(0, {true, true});
  Rec.cycle(0);
  Rec.stage(0, {true}); // missing bit1 means 0: a 1->0 edge
  Rec.cycle(1);
  ASSERT_TRUE(Rec.finish(false).ok());
  EXPECT_EQ(Cov.snapshot().at("sim.toggle").at("w[1]:10"), 1u);
}

TEST(ToggleCoverage, CountsEveryEdgeAcrossWordsAndFoldsIntoExistingBins) {
  Coverage Cov;
  Cov.hit("sim.toggle", "w[65]:01", 5);
  sim::ToggleCoverageSink Sink(Cov);
  sim::WaveRecorder Rec(&Sink, obs::defaultContext());
  ASSERT_TRUE(Rec.begin({sim::WaveSignal("w", 70)}).ok());
  std::vector<bool> Lo(70, false), Hi(70, false);
  Hi[0] = Hi[65] = true;
  for (int C = 0; C < 5; ++C) {
    Rec.stage(0, C % 2 ? Hi : Lo);
    Rec.cycle(C);
  }
  ASSERT_TRUE(Rec.finish(false).ok());
  CoverageSnapshot S = Cov.snapshot();
  const auto &Bins = S.at("sim.toggle");
  EXPECT_EQ(Bins.at("w[0]:01"), 2u);
  EXPECT_EQ(Bins.at("w[0]:10"), 2u);
  EXPECT_EQ(Bins.at("w[65]:01"), 7u); // two edges on top of the five
  EXPECT_EQ(Bins.at("w[65]:10"), 2u);
  EXPECT_EQ(Bins.size(), 4u);
}

//===----------------------------------------------------------------------===//
// Batch merge
//===----------------------------------------------------------------------===//

TEST(CoverageBatch, MergedSnapshotIsASupersetOfEveryItem) {
  std::vector<core::BatchInput> Inputs;
  Inputs.push_back({"mac.ret", MacSource});
  Inputs.push_back({"sub.ret", R"(
    def f(a:i8<4>, b:i8<4>) -> (y:i8<4>) {
      y:i8<4> = sub(a, b) @??;
    }
  )"});
  core::BatchOptions Options;
  Options.Options.Dev = device::Device::small();
  Options.Jobs = 2;
  std::vector<core::BatchItem> Items = core::compileBatch(Inputs, Options);
  ASSERT_EQ(Items.size(), 2u);
  for (const core::BatchItem &Item : Items)
    ASSERT_TRUE(Item.ok()) << Item.Name;

  CoverageSnapshot Merged = core::batchCoverage(Items);
  for (const core::BatchItem &Item : Items)
    for (const auto &[Space, Bins] : Item.Session->coverage().snapshot())
      for (const auto &[Bin, Count] : Bins) {
        ASSERT_TRUE(Merged.count(Space)) << Space;
        ASSERT_TRUE(Merged.at(Space).count(Bin)) << Space << "/" << Bin;
        EXPECT_GE(Merged.at(Space).at(Bin), Count) << Space << "/" << Bin;
      }
  // The vector-lane program contributes a lane bin mac alone cannot.
  EXPECT_GT(Merged.at("ir.lanes").count("4"), 0u);

  // The batch summary embeds the same merge.
  Json Summary = core::batchStatsJson(Items, 2);
  const Json *Cov = Summary.find("coverage");
  ASSERT_NE(Cov, nullptr);
  EXPECT_NE(Cov->find("spaces")->find("ir.op"), nullptr);
}

} // namespace
