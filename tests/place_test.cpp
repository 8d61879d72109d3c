//===- tests/place_test.cpp - Placement tests ----------------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "place/Place.h"

#include "core/Compiler.h"
#include "frontend/Benchmarks.h"
#include "rasm/AsmParser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <optional>
#include <random>
#include <set>
#include <sstream>

using namespace reticle;
using namespace reticle::place;
using device::Device;
using rasm::AsmProgram;

namespace {

AsmProgram parseOk(const std::string &Source) {
  Result<AsmProgram> P = rasm::parseAsmProgram(Source);
  EXPECT_TRUE(P.ok()) << P.error();
  return P.take();
}

/// Builds a program with N independent DSP adds, all wildcard-placed.
AsmProgram manyDspAdds(unsigned N) {
  std::string Source = "def f(a:i8, b:i8) -> (t0:i8";
  for (unsigned I = 1; I < N; ++I)
    Source += ", t" + std::to_string(I) + ":i8";
  Source += ") {\n";
  for (unsigned I = 0; I < N; ++I)
    Source += "  t" + std::to_string(I) +
              ":i8 = add(a, b) @dsp(?\?, ?\?);\n";
  Source += "}\n";
  return parseOk(Source);
}

} // namespace

TEST(Place, SingleWildcardInstruction) {
  AsmProgram P = parseOk(
      "def f(a:i8, b:i8) -> (y:i8) { y:i8 = add(a, b) @dsp(?\?, ?\?); }");
  Result<AsmProgram> Placed = reticle::place::place(P, Device::tiny());
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  EXPECT_TRUE(Placed.value().isPlaced());
  Status S = checkPlacement(P, Placed.value(), Device::tiny());
  EXPECT_TRUE(S.ok()) << S.error();
}

TEST(Place, HonorsPinnedLocations) {
  AsmProgram P = parseOk(R"(
    def f(a:i8, b:i8) -> (y:i8, z:i8) {
      y:i8 = add(a, b) @dsp(1, 2);
      z:i8 = add(a, b) @dsp(??, ??);
    }
  )");
  Result<AsmProgram> Placed = reticle::place::place(P, Device::tiny());
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  EXPECT_EQ(Placed.value().body()[0].loc().X.offset(), 1);
  EXPECT_EQ(Placed.value().body()[0].loc().Y.offset(), 2);
  // The second instruction must avoid the pinned slot.
  EXPECT_FALSE(Placed.value().body()[1].loc().X.offset() == 1 &&
               Placed.value().body()[1].loc().Y.offset() == 2);
  EXPECT_TRUE(checkPlacement(P, Placed.value(), Device::tiny()).ok());
}

TEST(Place, RejectsInvalidPin) {
  AsmProgram P = parseOk(
      "def f(a:i8, b:i8) -> (y:i8) { y:i8 = add(a, b) @dsp(0, 0); }");
  // Column 0 of the tiny device holds LUTs.
  Result<AsmProgram> Placed = reticle::place::place(P, Device::tiny());
  ASSERT_FALSE(Placed.ok());
  EXPECT_NE(Placed.error().find("not a valid"), std::string::npos);
}

TEST(Place, CascadeChainStaysInOneColumn) {
  AsmProgram P = parseOk(R"(
    def dot(a:i8, b:i8, c:i8, d:i8, e:i8, f:i8, in:i8) -> (t2:i8) {
      t0:i8 = muladd_co(a, b, in) @dsp(x, y);
      t1:i8 = muladd_cio(c, d, t0) @dsp(x, y+1);
      t2:i8 = muladd_ci(e, f, t1) @dsp(x, y+2);
    }
  )");
  Result<AsmProgram> Placed = reticle::place::place(P, Device::tiny());
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  int64_t X0 = Placed.value().body()[0].loc().X.offset();
  int64_t Y0 = Placed.value().body()[0].loc().Y.offset();
  EXPECT_EQ(Placed.value().body()[1].loc().X.offset(), X0);
  EXPECT_EQ(Placed.value().body()[1].loc().Y.offset(), Y0 + 1);
  EXPECT_EQ(Placed.value().body()[2].loc().X.offset(), X0);
  EXPECT_EQ(Placed.value().body()[2].loc().Y.offset(), Y0 + 2);
  EXPECT_TRUE(checkPlacement(P, Placed.value(), Device::tiny()).ok());
}

TEST(Place, FailsWhenChainExceedsColumn) {
  // Five chained DSPs cannot fit a column of height four.
  std::string Source =
      "def f(a:i8, b:i8, in:i8) -> (t4:i8) {\n";
  std::string Prev = "in";
  for (int I = 0; I < 5; ++I) {
    Source += "  t" + std::to_string(I) + ":i8 = muladd_cio(a, b, " + Prev +
              ") @dsp(x, y+" + std::to_string(I) + ");\n";
    Prev = "t" + std::to_string(I);
  }
  Source += "}\n";
  AsmProgram P = parseOk(Source);
  Result<AsmProgram> Placed = reticle::place::place(P, Device::tiny());
  ASSERT_FALSE(Placed.ok());
  EXPECT_NE(Placed.error().find("placement failed"), std::string::npos);
}

TEST(Place, ExactCapacityFits) {
  // The tiny device has exactly 4 DSP slots.
  AsmProgram P = manyDspAdds(4);
  Result<AsmProgram> Placed = reticle::place::place(P, Device::tiny());
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  EXPECT_TRUE(checkPlacement(P, Placed.value(), Device::tiny()).ok());
}

TEST(Place, OverCapacityFails) {
  AsmProgram P = manyDspAdds(5);
  Result<AsmProgram> Placed = reticle::place::place(P, Device::tiny());
  ASSERT_FALSE(Placed.ok());
}

TEST(Place, ShrinkingCompactsLayout) {
  // 8 DSP adds on the small device (16 DSP slots in 2 columns of 8):
  // shrinking should pack them into the first column.
  AsmProgram P = manyDspAdds(8);
  PlacementStats Stats;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::small(), PlacementOptions{}, &Stats);
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  EXPECT_TRUE(checkPlacement(P, Placed.value(), Device::small()).ok());
  unsigned MaxRow = 0, MaxCol = 0;
  for (const rasm::AsmInstr &I : Placed.value().body()) {
    MaxCol = std::max<unsigned>(MaxCol, I.loc().X.offset());
    MaxRow = std::max<unsigned>(MaxRow, I.loc().Y.offset());
  }
  // One column of 8 suffices; the first DSP column of small() is x=2.
  EXPECT_LE(MaxCol, 2u);
  EXPECT_LE(MaxRow, 7u);
  EXPECT_GE(Stats.Solves, 1u); // shrink probes may all fail the capacity precheck
}

TEST(Place, NoShrinkOptionSkipsExtraSolves) {
  AsmProgram P = manyDspAdds(2);
  PlacementOptions Options;
  Options.Shrink = false;
  PlacementStats Stats;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::small(), Options, &Stats);
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  EXPECT_EQ(Stats.Solves, 1u);
}

TEST(Place, MixedLutAndDspPrograms) {
  AsmProgram P = parseOk(R"(
    def f(a:i8, b:i8, en:bool) -> (y:i8) {
      t0:i8 = mul(a, b) @dsp(??, ??);
      t1:i8 = add(t0, b) @lut(??, ??);
      y:i8 = reg[0](t1, en) @lut(??, ??);
    }
  )");
  Result<AsmProgram> Placed = reticle::place::place(P, Device::tiny());
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  EXPECT_TRUE(checkPlacement(P, Placed.value(), Device::tiny()).ok());
}

TEST(Place, WireInstructionsNeedNoSlots) {
  AsmProgram P = parseOk(R"(
    def f(a:i8) -> (y:i8) {
      t0:i8 = sll[1](a);
      y:i8 = add(t0, a) @lut(??, ??);
    }
  )");
  Result<AsmProgram> Placed = reticle::place::place(P, Device::tiny());
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  EXPECT_TRUE(Placed.value().body()[0].isWire());
}

TEST(Place, MixedPrimitiveClusterRejected) {
  AsmProgram P = parseOk(R"(
    def f(a:i8, b:i8) -> (y:i8, z:i8) {
      y:i8 = add(a, b) @dsp(x, y0);
      z:i8 = add(a, b) @lut(x, y0+1);
    }
  )");
  Result<AsmProgram> Placed = reticle::place::place(P, Device::tiny());
  ASSERT_FALSE(Placed.ok());
  EXPECT_NE(Placed.error().find("one primitive kind"), std::string::npos);
}

class PlaceRandomTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(PlaceRandomTest, RandomMixesAlwaysValidOrFail) {
  std::mt19937 Rng(GetParam());
  std::uniform_int_distribution<int> CountDist(1, 12);
  std::uniform_int_distribution<int> KindDist(0, 2);
  unsigned N = CountDist(Rng);
  std::string Source = "def f(a:i8, b:i8) -> (t0:i8) {\n";
  for (unsigned I = 0; I < N; ++I) {
    std::string T = "t" + std::to_string(I);
    int Kind = KindDist(Rng);
    const char *Loc = Kind == 0   ? "@lut(?\?, ?\?)"
                      : Kind == 1 ? "@dsp(?\?, ?\?)"
                                  : "@lut(?\?, 1)";
    Source += "  " + T + ":i8 = add(a, b) " + Loc + ";\n";
  }
  Source += "}\n";
  AsmProgram P = parseOk(Source);
  Result<AsmProgram> Placed = reticle::place::place(P, Device::small());
  if (Placed.ok()) {
    Status S = checkPlacement(P, Placed.value(), Device::small());
    EXPECT_TRUE(S.ok()) << S.error() << "\n" << Placed.value().str();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlaceRandomTest, ::testing::Range(0u, 25u));

TEST(Place, CapacityCoreNamesResourceAndInstruction) {
  // 5 DSP instructions on a 4-slot device: the arithmetic precheck
  // refutes it, and the explanation must name the resource and a real
  // instruction of the program.
  AsmProgram P = manyDspAdds(5);
  PlacementStats Stats;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::tiny(), PlacementOptions{}, &Stats);
  ASSERT_FALSE(Placed.ok());
  ASSERT_FALSE(Stats.Core.empty());
  EXPECT_EQ(Stats.Core.front().Kind, "capacity");
  EXPECT_EQ(Stats.Core.front().Instr, "t0");
  EXPECT_NE(Stats.Core.front().Detail.find("dsp"), std::string::npos);
  EXPECT_NE(Stats.Core.front().Detail.find("5"), std::string::npos);
}

TEST(Place, SolverLevelUnsatYieldsMinimizedCore) {
  // Passes the capacity precheck (4 instructions, 4 slots) and the tall-
  // cluster precheck (two chains of height >= 2, two segments fit), but no
  // interleaving works: a contiguous pair and a gapped pair cannot share
  // one column of four rows. The refutation must come from the SAT solver,
  // and the minimized core must name the competing clusters.
  AsmProgram P = parseOk(R"(
    def f(a:i8, b:i8) -> (p0:i8, p1:i8, q0:i8, q1:i8) {
      p0:i8 = add(a, b) @dsp(x, y);
      p1:i8 = add(a, b) @dsp(x, y+1);
      q0:i8 = add(a, b) @dsp(u, v);
      q1:i8 = add(a, b) @dsp(u, v+2);
    }
  )");
  PlacementStats Stats;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::tiny(), PlacementOptions{}, &Stats);
  ASSERT_FALSE(Placed.ok());
  ASSERT_FALSE(Stats.Core.empty());
  bool NamedP = false, NamedQ = false;
  for (const CoreConstraint &C : Stats.Core) {
    EXPECT_TRUE(C.Kind == "choose-one" || C.Kind == "distinct") << C.Kind;
    EXPECT_FALSE(C.Detail.empty());
    if (C.Kind == "choose-one") {
      NamedP = NamedP || C.Instr == "p0";
      NamedQ = NamedQ || C.Instr == "q0";
    }
  }
  // Relaxing either cluster's choose-one constraint makes the formula
  // satisfiable, so the minimized core must keep both.
  EXPECT_TRUE(NamedP);
  EXPECT_TRUE(NamedQ);
}

TEST(Place, TimelineRecordsInitialSolutionAndEveryProbe) {
  AsmProgram P = manyDspAdds(8);
  PlacementStats Stats;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::small(), PlacementOptions{}, &Stats);
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  ASSERT_GE(Stats.Timeline.size(), 2u);
  const ShrinkProbe &First = Stats.Timeline.front();
  EXPECT_EQ(First.ProbeAxis, ShrinkProbe::Axis::Initial);
  EXPECT_EQ(First.Result, ShrinkProbe::Outcome::Sat);
  EXPECT_EQ(First.Slots.size(), 8u);
  for (size_t I = 1; I < Stats.Timeline.size(); ++I) {
    const ShrinkProbe &Probe = Stats.Timeline[I];
    EXPECT_NE(Probe.ProbeAxis, ShrinkProbe::Axis::Initial);
    // Every frame carries the layout accepted so far; a shrinking run
    // never grows its occupied-slot set.
    EXPECT_EQ(Probe.Slots.size(), 8u);
    EXPECT_LE(Probe.MaxColumn, First.MaxColumn);
    EXPECT_LE(Probe.MaxRow, First.MaxRow);
  }
  // The run succeeded, so no frame and no constraint explanation linger.
  EXPECT_TRUE(Stats.Core.empty());
}

TEST(Place, NoShrinkTimelineHasOnlyTheInitialFrame) {
  AsmProgram P = manyDspAdds(2);
  PlacementOptions Options;
  Options.Shrink = false;
  PlacementStats Stats;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::small(), Options, &Stats);
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  ASSERT_EQ(Stats.Timeline.size(), 1u);
  EXPECT_EQ(Stats.Timeline.front().ProbeAxis, ShrinkProbe::Axis::Initial);
}

TEST(Place, ScratchModeMatchesHistoricalAccounting) {
  // Scratch mode builds and solves the CNF on every attempt past the
  // prechecks, and every shrink probe is either one of those or settled
  // arithmetically.
  AsmProgram P = manyDspAdds(8);
  PlacementOptions Options;
  Options.Mode = SatMode::Scratch;
  PlacementStats Stats;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::small(), Options, &Stats);
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  EXPECT_EQ(Stats.Mode, SatMode::Scratch);
  EXPECT_GE(Stats.Solves, 1u);
  EXPECT_EQ(Stats.CnfSolves, Stats.Solves);
  EXPECT_EQ(Stats.IncrementalProbes + Stats.PrecheckProbes,
            Stats.Timeline.size() - 1);
  EXPECT_GT(Stats.ShrinkMs, 0.0);
}

namespace {

/// The placed program of a run, or its error.
std::string outcomeText(const Result<AsmProgram> &R) {
  return R.ok() ? R.value().str() : "error: " + R.error();
}

/// Everything a placement run records that must not depend on the mode:
/// every timeline frame, the search effort, and the core.
void expectSameStats(const PlacementStats &SA, const PlacementStats &SB) {
  ASSERT_EQ(SA.Timeline.size(), SB.Timeline.size());
  for (size_t I = 0; I < SA.Timeline.size(); ++I) {
    SCOPED_TRACE("timeline frame " + std::to_string(I));
    const ShrinkProbe &FA = SA.Timeline[I], &FB = SB.Timeline[I];
    EXPECT_EQ(FA.ProbeAxis, FB.ProbeAxis);
    EXPECT_EQ(FA.Bound, FB.Bound);
    EXPECT_EQ(FA.Result, FB.Result);
    EXPECT_EQ(FA.Slots, FB.Slots);
    EXPECT_EQ(FA.Conflicts, FB.Conflicts);
    EXPECT_EQ(FA.Decisions, FB.Decisions);
  }
  EXPECT_EQ(SA.Conflicts, SB.Conflicts);
  EXPECT_EQ(SA.Decisions, SB.Decisions);
  EXPECT_EQ(SA.Propagations, SB.Propagations);
  ASSERT_EQ(SA.Core.size(), SB.Core.size());
  for (size_t I = 0; I < SA.Core.size(); ++I) {
    EXPECT_EQ(SA.Core[I].Kind, SB.Core[I].Kind);
    EXPECT_EQ(SA.Core[I].Instr, SB.Core[I].Instr);
    EXPECT_EQ(SA.Core[I].Detail, SB.Core[I].Detail);
  }
}

struct ModeRuns {
  Result<AsmProgram> Scratch, Propagate;
  PlacementStats ScratchStats, PropagateStats;
};

/// Places \p P in both modes and expects identical runs.
ModeRuns placeBothModes(const AsmProgram &P, const Device &Dev) {
  PlacementOptions Scratch, Propagate;
  Scratch.Mode = SatMode::Scratch;
  Propagate.Mode = SatMode::Propagate;
  PlacementStats ScratchStats, PropagateStats;
  Result<AsmProgram> S = reticle::place::place(P, Dev, Scratch, &ScratchStats);
  Result<AsmProgram> Q =
      reticle::place::place(P, Dev, Propagate, &PropagateStats);
  EXPECT_EQ(outcomeText(S), outcomeText(Q));
  expectSameStats(ScratchStats, PropagateStats);
  return {std::move(S), std::move(Q), std::move(ScratchStats),
          std::move(PropagateStats)};
}

/// A random placement problem that can need real search: 2-6 clusters of
/// LUT or DSP instructions, each a chain of 1-3 members with row gaps of
/// 1-2, in a variable column or pinned to a column of its kind; plus up
/// to two fully pinned instructions (fixed clusters that only occupy
/// slots) and up to two single instructions with `??` coordinates.
AsmProgram randomChains(std::mt19937 &Rng, const Device &Dev) {
  auto Pick = [&](int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  };
  auto PickKind = [&] {
    return Pick(0, 1) ? ir::Resource::Lut : ir::Resource::Dsp;
  };
  auto PickColumn = [&](ir::Resource Kind) {
    std::vector<unsigned> Cols = Dev.columnsOf(Kind);
    return Cols[Pick(0, int(Cols.size()) - 1)];
  };
  std::string Body;
  unsigned T = 0;
  auto Emit = [&](ir::Resource Kind, const std::string &X,
                  const std::string &Y) {
    Body += "  t" + std::to_string(T++) + ":i8 = add(a, b) @" +
            std::string(ir::resourceName(Kind)) + "(" + X + ", " + Y +
            ");\n";
  };
  int NumClusters = Pick(2, 6);
  for (int C = 0; C < NumClusters; ++C) {
    ir::Resource Kind = PickKind();
    std::string Col = Pick(0, 1) ? "x" + std::to_string(C)
                                 : std::to_string(PickColumn(Kind));
    int Row = 0;
    for (int M = Pick(1, 3); M > 0; --M) {
      Emit(Kind, Col,
           "y" + std::to_string(C) + (Row ? "+" + std::to_string(Row) : ""));
      Row += Pick(1, 2);
    }
  }
  std::set<device::Slot> Pinned;
  for (int P = Pick(0, 2); P > 0; --P) {
    ir::Resource Kind = PickKind();
    unsigned X = PickColumn(Kind);
    unsigned Y = Pick(0, int(Dev.columns()[X].Height) - 1);
    if (Pinned.insert({X, Y}).second)
      Emit(Kind, std::to_string(X), std::to_string(Y));
  }
  for (int W = Pick(0, 2); W > 0; --W) {
    ir::Resource Kind = PickKind();
    switch (Pick(0, 2)) {
    case 0:
      Emit(Kind, "??", "??");
      break;
    case 1:
      Emit(Kind, "??", std::to_string(Pick(0, 3)));
      break;
    default:
      Emit(Kind, std::to_string(PickColumn(Kind)), "??");
      break;
    }
  }
  return parseOk("def f(a:i8, b:i8) -> (t0:i8) {\n" + Body + "}\n");
}

} // namespace

TEST(Place, PropagationFallsBackToTheCnfAndAgreesWithScratch) {
  // Propagation only answers attempts the solver would finish without a
  // conflict; everything else must reach the CNF. Across the seeds some
  // attempts need search (a CNF solve with conflicts that finds a layout)
  // and some are refuted by the solver, and on every one of them the two
  // modes must agree.
  unsigned FellBackSat = 0, FellBackUnsat = 0;
  for (const Device &Dev : {Device::tiny(), Device::small()}) {
    for (unsigned Seed = 0; Seed < 400; ++Seed) {
      SCOPED_TRACE(Dev.name() + " seed " + std::to_string(Seed));
      std::mt19937 Rng(Seed);
      AsmProgram P = randomChains(Rng, Dev);
      ModeRuns R = placeBothModes(P, Dev);
      if (R.Propagate.ok()) {
        Status S = checkPlacement(P, R.Propagate.value(), Dev);
        EXPECT_TRUE(S.ok()) << S.error();
      }
      EXPECT_LE(R.PropagateStats.CnfSolves, R.ScratchStats.CnfSolves);
      // Propagation never spends a conflict, so a frame with conflicts
      // was answered by the CNF.
      for (const ShrinkProbe &F : R.PropagateStats.Timeline) {
        FellBackSat += F.Conflicts && F.Result == ShrinkProbe::Outcome::Sat;
        FellBackUnsat +=
            F.Conflicts && F.Result == ShrinkProbe::Outcome::Unsat;
      }
      for (const CoreConstraint &C : R.PropagateStats.Core)
        FellBackUnsat += C.Kind == "choose-one";
    }
  }
  EXPECT_GT(FellBackSat, 0u);
  EXPECT_GT(FellBackUnsat, 0u);
}

TEST(Place, CandidateCapGrowsWhenTheCappedAttemptFails) {
  // A 130-row chain pinned to column 0 fills that column, so it has one
  // candidate. The wildcard instruction's first 128 candidates (the
  // initial cap) are all in column 0 as well, so the capped attempt is
  // refuted, and the cap grows to 512, reaching column 1. There the two
  // pinned instructions occupy rows 0 and 1, so the layout puts the
  // wildcard at (1, 2).
  Device Dev("capgrow", {{ir::Resource::Lut, 130},
                         {ir::Resource::Lut, 130},
                         {ir::Resource::Lut, 130},
                         {ir::Resource::Lut, 130}});
  std::string Body;
  for (unsigned K = 0; K < 130; ++K)
    Body += "  c" + std::to_string(K) + ":i8 = add(a, b) @lut(0, y" +
            (K ? "+" + std::to_string(K) : "") + ");\n";
  Body += "  p0:i8 = add(a, b) @lut(1, 0);\n"
          "  p1:i8 = add(a, b) @lut(1, 1);\n"
          "  w:i8 = add(a, b) @lut(?\?, ?\?);\n";
  AsmProgram P = parseOk("def f(a:i8, b:i8) -> (w:i8) {\n" + Body + "}\n");

  ModeRuns R = placeBothModes(P, Dev);
  ASSERT_TRUE(R.Propagate.ok()) << R.Propagate.error();
  EXPECT_TRUE(checkPlacement(P, R.Propagate.value(), Dev).ok());
  EXPECT_NE(R.Propagate.value().str().find("w:i8 = add(a, b) @lut(1, 2)"),
            std::string::npos)
      << R.Propagate.value().str();
  // Propagation refutes the capped attempt and hands it to the CNF.
  EXPECT_GT(R.PropagateStats.CnfSolves, 0u);

  for (SatMode Mode : {SatMode::Scratch, SatMode::Propagate}) {
    obs::Telemetry Telem;
    obs::RemarkStream Remarks;
    obs::Coverage Cov;
    Remarks.enable();
    obs::Context Ctx{&Telem, &Remarks, &Cov};
    PlacementOptions Options;
    Options.Mode = Mode;
    ASSERT_TRUE(reticle::place::place(P, Dev, Options, nullptr, Ctx).ok());
    std::string Stream = Remarks.jsonl("capgrow");
    EXPECT_NE(Stream.find("(candidate cap 512)"), std::string::npos);
    EXPECT_NE(Stream.find("\"candidate_cap\":512"), std::string::npos);
  }
}

TEST(Place, CandidateListingOneSlotTwiceFallsBack) {
  // With x = 0 both members land on lut(0, y): the lowest candidate names
  // one slot twice, which the solver rejects only through a conflict, so
  // propagation must hand the attempt to the CNF.
  AsmProgram P = parseOk(R"(
    def f(a:i8, b:i8) -> (s:i8, t:i8) {
      s:i8 = add(a, b) @lut(x, y);
      t:i8 = add(a, b) @lut(0, y);
    }
  )");
  ModeRuns R = placeBothModes(P, Device::tiny());
  ASSERT_TRUE(R.Propagate.ok()) << R.Propagate.error();
  EXPECT_TRUE(checkPlacement(P, R.Propagate.value(), Device::tiny()).ok());
  EXPECT_GT(R.PropagateStats.CnfSolves, 0u);
  EXPECT_GT(R.PropagateStats.Timeline.front().Conflicts, 0u);
}

namespace {

/// One program of the compile-time corpus, on the device it is compiled
/// for.
struct CorpusCase {
  std::string Name;
  std::optional<ir::Function> Fn; // else: tests/inputs/<Name>.ret
  Device Dev;
};

std::vector<CorpusCase> placementCorpus() {
  std::vector<CorpusCase> Cases;
  Cases.push_back({"fsm_shrink", std::nullopt, Device::small()});
  Cases.push_back({"fsm_43", frontend::makeFsm(43), Device::xczu3eg()});
  Cases.push_back(
      {"tensoradd_512", frontend::makeTensorAdd(512), Device::xczu3eg()});
  Cases.push_back(
      {"dsp_add_1024", frontend::makeDspAdd(1024), Device::xczu3eg()});
  return Cases;
}

/// Compiles \p C through the whole pipeline in \p Mode, proof log on.
Result<core::CompileResult> compileCorpus(const CorpusCase &C, SatMode Mode) {
  std::string Source;
  if (!C.Fn) {
    std::ifstream In(std::string(RETICLE_TEST_INPUTS_DIR) + "/" + C.Name +
                     ".ret");
    EXPECT_TRUE(In.good()) << C.Name;
    Source.assign(std::istreambuf_iterator<char>(In), {});
  }
  core::CompileOptions Options;
  Options.Dev = C.Dev;
  Options.SatMode = Mode;
  Options.SatProof = true;
  return C.Fn ? core::compile(*C.Fn, Options)
              : core::compileSource(Source, C.Name, Options);
}

std::string fnv1a(const std::string &Text) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char Ch : Text) {
    H ^= Ch;
    H *= 0x100000001b3ULL;
  }
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

size_t lineCount(const std::string &Text) {
  return static_cast<size_t>(std::count(Text.begin(), Text.end(), '\n'));
}

/// What a compile's placement must reproduce, as golden text: the search
/// totals, one line per timeline frame (its slots as a digest), and
/// digests of the placed program and the proof log.
std::string placementGolden(const core::CompileResult &R) {
  const PlacementStats &S = R.PlaceStats;
  std::ostringstream Out;
  std::string Placed = R.Placed.str();
  Out << "placed " << lineCount(Placed) << " lines fnv1a " << fnv1a(Placed)
      << "\n";
  Out << "proof " << lineCount(R.SatProof) << " lines fnv1a "
      << fnv1a(R.SatProof) << "\n";
  Out << "decisions " << S.Decisions << "\n";
  Out << "propagations " << S.Propagations << "\n";
  Out << "conflicts " << S.Conflicts << "\n";
  for (const ShrinkProbe &F : S.Timeline) {
    std::string Slots;
    for (const device::Slot &Sl : F.Slots)
      Slots += std::to_string(Sl.X) + "," + std::to_string(Sl.Y) + ";";
    Out << "frame "
        << (F.ProbeAxis == ShrinkProbe::Axis::Initial  ? "initial"
            : F.ProbeAxis == ShrinkProbe::Axis::Column ? "col"
                                                       : "row")
        << " bound " << F.Bound << " outcome "
        << (F.Result == ShrinkProbe::Outcome::Sat     ? "sat"
            : F.Result == ShrinkProbe::Outcome::Unsat ? "unsat"
                                                      : "budget")
        << " conflicts " << F.Conflicts << " decisions " << F.Decisions
        << " box " << F.MaxColumn << "x" << F.MaxRow << " slots "
        << F.Slots.size() << " fnv1a " << fnv1a(Slots) << "\n";
  }
  return Out.str();
}

} // namespace

TEST(Place, CorpusPlacementMatchesGoldenInBothModes) {
  // tests/goldens/place/<name>.txt pins what the corpus placement
  // searched and found. Both modes share the candidate enumeration, so
  // only a golden catches a change to it. RETICLE_UPDATE_GOLDENS=1
  // rewrites the goldens from the scratch mode.
  const char *Update = std::getenv("RETICLE_UPDATE_GOLDENS");
  for (const CorpusCase &C : placementCorpus()) {
    std::string Path =
        std::string(RETICLE_PLACE_GOLDENS_DIR) + "/" + C.Name + ".txt";
    for (SatMode Mode : {SatMode::Scratch, SatMode::Propagate}) {
      SCOPED_TRACE(C.Name + (Mode == SatMode::Scratch ? " scratch"
                                                      : " propagate"));
      Result<core::CompileResult> R = compileCorpus(C, Mode);
      ASSERT_TRUE(R.ok()) << R.error();
      std::string Text = placementGolden(R.value());
      if (Update && std::string(Update) == "1" && Mode == SatMode::Scratch) {
        std::ofstream(Path, std::ios::binary) << Text;
        continue;
      }
      std::ifstream In(Path, std::ios::binary);
      ASSERT_TRUE(In.good()) << "missing golden " << Path;
      std::string Golden((std::istreambuf_iterator<char>(In)), {});
      EXPECT_EQ(Golden, Text);
    }
  }
}

TEST(Place, ModesAgreeOnCompiledProgramsByteForByte) {
  // The compile-time corpus through the whole pipeline: the placed
  // program, the timeline and the proof log must not depend on the mode.
  for (const CorpusCase &C : placementCorpus()) {
    SCOPED_TRACE(C.Name);
    Result<core::CompileResult> S = compileCorpus(C, SatMode::Scratch);
    Result<core::CompileResult> P = compileCorpus(C, SatMode::Propagate);
    ASSERT_TRUE(S.ok()) << S.error();
    ASSERT_TRUE(P.ok()) << P.error();
    EXPECT_EQ(S.value().Placed.str(), P.value().Placed.str());
    EXPECT_EQ(S.value().SatProof, P.value().SatProof);
    expectSameStats(S.value().PlaceStats, P.value().PlaceStats);
    EXPECT_GT(S.value().PlaceStats.CnfSolves, 0u);
    EXPECT_EQ(P.value().PlaceStats.CnfSolves, 0u);
  }
}
