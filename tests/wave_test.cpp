//===- tests/wave_test.cpp - Waveform observability tests ----------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// The waveform layer end to end: the Trace convenience API the engines
/// replay, the word layout, the WaveRecorder's word-level change detection
/// and counters, the VCD and reticle-wave-v1 writers (including the
/// abort-flush contract), the fan-out sink, the input-trace parser, and
/// the engines driving a sink — with the interpreter and the gate-level
/// simulator agreeing on every shared port signal, the property
/// `json_check wave_diff` gates on in CI, and direct sinks producing
/// exactly what capture-then-replay produces.
///
//===----------------------------------------------------------------------===//

#include "interp/Wave.h"

#include "codegen/NetlistSim.h"
#include "obs/Coverage.h"
#include "sim/Compile.h"
#include "sim/Vm.h"
#include "core/Compiler.h"
#include "core/Stats.h"
#include "interp/Interp.h"
#include "interp/TraceIo.h"
#include "ir/Parser.h"
#include "obs/Json.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>

using namespace reticle;
using interp::Trace;
using interp::Value;
using obs::Json;
using sim::WaveCapture;
using sim::WaveLayout;
using sim::WaveRecorder;
using sim::WaveSignal;

namespace {

const char *MacSource = R"(
  def mac(a:i8, b:i8, c:i8, en:bool) -> (y:i8) {
    t0:i8 = mul(a, b) @??;
    t1:i8 = add(t0, c) @??;
    y:i8 = reg[0](t1, en) @??;
  }
)";

ir::Function parseOk(const char *Source) {
  Result<ir::Function> Fn = ir::parseFunction(Source);
  EXPECT_TRUE(Fn.ok()) << Fn.error();
  return Fn.take();
}

/// One word per signal: the table layout the recorder tests drive.
WaveLayout wordPerSignal(const std::vector<WaveSignal> &Sigs) {
  WaveLayout L;
  for (uint32_t I = 0; I < Sigs.size(); ++I)
    L.add(I, Sigs[I].Width, Sigs[I].Width, 1);
  return L;
}

Trace macTrace() {
  Trace T;
  ir::Type I8 = ir::Type::makeInt(8);
  ir::Type B = ir::Type::makeBool();
  for (int C = 0; C < 4; ++C) {
    interp::Step &S = T.appendStep();
    S["a"] = Value::splat(I8, C + 1);
    S["b"] = Value::splat(I8, 2 * C - 1);
    S["c"] = Value::splat(I8, -C);
    S["en"] = Value::makeBool(C != 2);
  }
  return T;
}

//===----------------------------------------------------------------------===//
// Trace convenience API
//===----------------------------------------------------------------------===//

TEST(TraceApi, SetGrowsTheTrace) {
  Trace T;
  ir::Type B = ir::Type::makeBool();
  T.set(3, "a", Value::makeBool(true));
  EXPECT_EQ(T.size(), 4u);
  ASSERT_NE(T.get(3, "a"), nullptr);
  EXPECT_EQ(T.get(3, "a")->toBits(), std::vector<bool>{true});
  // The grown-over cycles exist but hold nothing.
  EXPECT_EQ(T.get(1, "a"), nullptr);
}

TEST(TraceApi, GetMissingNameAndCycleReturnsNull) {
  Trace T;
  T.set(0, "a", Value::makeBool(false));
  EXPECT_EQ(T.get(0, "b"), nullptr);
  EXPECT_EQ(T.get(7, "a"), nullptr);
}

TEST(TraceApi, AppendStepFillsInPlace) {
  Trace T;
  interp::Step &S = T.appendStep();
  S["x"] = Value::makeBool(true);
  EXPECT_EQ(T.size(), 1u);
  ASSERT_NE(T.get(0, "x"), nullptr);
}

//===----------------------------------------------------------------------===//
// bitsToString
//===----------------------------------------------------------------------===//

TEST(WaveBits, RendersMsbFirst) {
  // LSB-first {1,0,0,1} is binary 1001.
  EXPECT_EQ(sim::bitsToString({true, false, false, true}), "1001");
  EXPECT_EQ(sim::bitsToString({true}), "1");
  EXPECT_EQ(sim::bitsToString({}), "");
}

//===----------------------------------------------------------------------===//
// WaveRecorder: change detection, width normalization, counters
//===----------------------------------------------------------------------===//

TEST(WaveLayout, SlicesFollowTheSignalShape) {
  WaveLayout L;
  L.add(4, 8, 8, 1);    // one i8 lane in word 4
  L.add(5, 12, 4, 3);   // three 4-bit lanes in words 5..7
  L.add(8, 70, 64, 2);  // 70 packed bits over words 8..9
  ASSERT_EQ(L.signals(), 3u);
  ASSERT_EQ(L.Slices.size(), 6u);
  EXPECT_EQ(L.First, (std::vector<uint32_t>{0, 1, 4, 6}));
  EXPECT_EQ(L.Slices[0].Word, 4u);
  EXPECT_EQ(L.Slices[0].Mask, 0xFFu);
  EXPECT_EQ(L.Slices[2].Word, 6u);
  EXPECT_EQ(L.Slices[2].Bit, 4u);
  EXPECT_EQ(L.Slices[2].width(), 4u);
  EXPECT_EQ(L.Slices[4].Mask, ~uint64_t(0));
  EXPECT_EQ(L.Slices[5].Bit, 64u);
  EXPECT_EQ(L.Slices[5].width(), 6u);

  // Lane 0 carries the low bits; rendering is MSB first.
  const uint64_t Vals[6] = {0x81, 0x1, 0x2, 0xF, 0, 0x21};
  std::string Text;
  L.appendBits(Text, Vals, 1);
  EXPECT_EQ(Text, "111100100001");
  EXPECT_EQ(sim::bitsToString(L.bits(Vals, 0)), "10000001");
  EXPECT_EQ(L.bits(Vals, 2).size(), 70u);
  EXPECT_TRUE(L.bits(Vals, 2)[64]);
  EXPECT_TRUE(L.bits(Vals, 2)[69]);
}

TEST(WaveRecorder, DetectsChangesAndCountsToggles) {
  obs::Telemetry Telem;
  obs::RemarkStream Rem;
  obs::Context Ctx{&Telem, &Rem};
  WaveCapture Cap;
  WaveRecorder Rec(&Cap, Ctx);
  EXPECT_TRUE(Rec.active());
  std::vector<WaveSignal> Sigs = {WaveSignal("a", 4), WaveSignal("b", 1)};
  ASSERT_TRUE(Rec.begin(Sigs, wordPerSignal(Sigs)).ok());

  uint64_t Words[2] = {0b0101, 1};
  Rec.cycle(0, Words);
  Words[1] = 0; // a unchanged, b flipped
  Rec.cycle(1, Words);
  ASSERT_TRUE(Rec.finish(false).ok());

  ASSERT_EQ(Cap.cycles(), 2u);
  // First sight is always marked changed; repeats are not.
  EXPECT_TRUE(Cap.changedAt(0, 0));
  EXPECT_TRUE(Cap.changedAt(0, 1));
  EXPECT_FALSE(Cap.changedAt(1, 0));
  EXPECT_TRUE(Cap.changedAt(1, 1));
  EXPECT_EQ(sim::bitsToString(*Cap.valueAt(1, "a")), "0101");
  EXPECT_TRUE(Cap.finished());
  EXPECT_FALSE(Cap.aborted());

  EXPECT_EQ(Ctx.counter("sim.signals").load(), 2u);
  EXPECT_EQ(Ctx.counter("sim.events").load(), 4u);
  // First sight toggles the full width (4 + 1); cycle 1 flips one bit.
  EXPECT_EQ(Ctx.counter("sim.toggles").load(), 6u);
}

TEST(WaveRecorder, NormalizesBitsToDeclaredWidth) {
  // The staging shim pads a short bit vector to the declared width...
  WaveCapture Cap;
  WaveRecorder Rec(&Cap, obs::defaultContext());
  ASSERT_TRUE(Rec.begin({WaveSignal("w", 4)}).ok());
  Rec.stage(0, {true}); // short: padded to 4 bits
  Rec.cycle(0);
  ASSERT_TRUE(Rec.finish(false).ok());
  std::optional<std::vector<bool>> V = Cap.valueAt(0, "w");
  ASSERT_TRUE(V);
  EXPECT_EQ(V->size(), 4u);
  EXPECT_EQ(sim::bitsToString(*V), "0001");

  // ...and a table word's bits above the declared width (a sign-extended
  // IR lane) are masked off.
  WaveCapture Table;
  WaveRecorder TableRec(&Table, obs::defaultContext());
  std::vector<WaveSignal> Sigs = {WaveSignal("n", 4)};
  ASSERT_TRUE(TableRec.begin(Sigs, wordPerSignal(Sigs)).ok());
  const uint64_t MinusOne = ~uint64_t(0);
  TableRec.cycle(0, &MinusOne);
  ASSERT_TRUE(TableRec.finish(false).ok());
  EXPECT_EQ(sim::bitsToString(*Table.valueAt(0, "n")), "1111");
}

TEST(WaveRecorder, NullSinkIsInert) {
  obs::Telemetry Telem;
  obs::RemarkStream Rem;
  obs::Context Ctx{&Telem, &Rem};
  WaveRecorder Rec(nullptr, Ctx);
  EXPECT_FALSE(Rec.active());
  ASSERT_TRUE(Rec.begin({WaveSignal("a", 1)}).ok());
  Rec.stage(0, {true});
  Rec.cycle(0);
  ASSERT_TRUE(Rec.finish(false).ok());
  EXPECT_EQ(Ctx.counter("sim.events").load(), 0u);
  EXPECT_EQ(Ctx.counter("sim.signals").load(), 0u);
}

TEST(WaveRecorder, RejectsALayoutOfTheWrongSize) {
  WaveCapture Cap;
  WaveRecorder Rec(&Cap, obs::defaultContext());
  EXPECT_FALSE(
      Rec.begin({WaveSignal("a", 1), WaveSignal("b", 1)}, WaveLayout()).ok());
}

//===----------------------------------------------------------------------===//
// replay: merging captures under per-engine prefixes
//===----------------------------------------------------------------------===//

TEST(WaveReplay, MergesSourcesWithPrefixes) {
  WaveCapture A, B;
  WaveRecorder RecA(&A, obs::defaultContext());
  ASSERT_TRUE(RecA.begin({WaveSignal("y", 2)}).ok());
  RecA.stage(0, {true, false});
  RecA.cycle(0);
  ASSERT_TRUE(RecA.finish(false).ok());
  WaveRecorder RecB(&B, obs::defaultContext());
  ASSERT_TRUE(RecB.begin({WaveSignal("y", 2)}).ok());
  RecB.stage(0, {true, false});
  RecB.cycle(0);
  RecB.stage(0, {false, true});
  RecB.cycle(1);
  ASSERT_TRUE(RecB.finish(true).ok()); // one aborted source

  WaveCapture Merged;
  ASSERT_TRUE(sim::replay({{&A, "interp"}, {&B, "netlist"}}, Merged).ok());
  ASSERT_EQ(Merged.signals().size(), 2u);
  EXPECT_EQ(Merged.signals()[0].Name, "interp.y");
  EXPECT_EQ(Merged.signals()[1].Name, "netlist.y");
  // Cycle 1 only exists in B; the merge spans the longer run and carries
  // the abort flag forward.
  EXPECT_EQ(Merged.cycles(), 2u);
  EXPECT_TRUE(Merged.aborted());
  ASSERT_TRUE(Merged.valueAt(1, "netlist.y"));
  EXPECT_EQ(sim::bitsToString(*Merged.valueAt(1, "netlist.y")), "10");
  EXPECT_TRUE(Merged.changedAt(1, 1));
  EXPECT_FALSE(Merged.valueAt(1, "interp.y"));
}

TEST(WaveFanout, EverySinkSeesTheSameRun) {
  WaveCapture A, B;
  sim::WaveFanout Fan;
  EXPECT_TRUE(Fan.empty());
  Fan.add(A);
  Fan.add(B);
  WaveRecorder Rec(&Fan, obs::defaultContext());
  ASSERT_TRUE(Rec.begin({WaveSignal("y", 3)}).ok());
  Rec.stage(0, {true, true, false});
  Rec.cycle(0);
  ASSERT_TRUE(Rec.finish(true).ok());
  for (const WaveCapture *C : {&A, &B}) {
    EXPECT_TRUE(C->finished());
    EXPECT_TRUE(C->aborted());
    ASSERT_TRUE(C->valueAt(0, "y"));
    EXPECT_EQ(sim::bitsToString(*C->valueAt(0, "y")), "011");
  }
}

//===----------------------------------------------------------------------===//
// VcdWriter
//===----------------------------------------------------------------------===//

/// Checks the dump section line by line: after $enddefinitions every line
/// must be a timestamp, a scalar change, a vector change, or one of the
/// $dumpvars / $end / $comment keywords. Returns the first bad line.
std::string checkVcdShape(const std::string &Text) {
  std::istringstream In(Text);
  std::string Line;
  bool InDump = false;
  while (std::getline(In, Line)) {
    if (Line.find("$enddefinitions") != std::string::npos) {
      InDump = true;
      continue;
    }
    if (!InDump || Line.empty())
      continue;
    char C = Line[0];
    if (C == '#' || C == '0' || C == '1' || C == 'b' || C == 'x' ||
        C == '$')
      continue;
    return Line;
  }
  return {};
}

TEST(VcdWriter, IdCodesAreCompactAndUnique) {
  EXPECT_EQ(sim::VcdWriter::idCode(0), "!");
  EXPECT_EQ(sim::VcdWriter::idCode(93), "~");
  EXPECT_EQ(sim::VcdWriter::idCode(94).size(), 2u);
  std::set<std::string> Codes;
  for (unsigned I = 0; I < 300; ++I)
    Codes.insert(sim::VcdWriter::idCode(I));
  EXPECT_EQ(Codes.size(), 300u);
}

TEST(VcdWriter, HeaderDumpAndSuppression) {
  sim::VcdWriter W("top");
  WaveRecorder Rec(&W, obs::defaultContext());
  std::vector<WaveSignal> Sigs = {WaveSignal("s", 1), WaveSignal("v", 8)};
  ASSERT_TRUE(Rec.begin(Sigs, wordPerSignal(Sigs)).ok());
  uint64_t Words[2] = {1, 0};
  Rec.cycle(0, Words);
  Words[1] = 1; // the scalar stays put and is suppressed
  Rec.cycle(1, Words);
  ASSERT_TRUE(Rec.finish(false).ok());
  const std::string &T = W.text();

  EXPECT_NE(T.find("$scope module top $end"), std::string::npos);
  // Scalars carry no range; vectors do.
  EXPECT_NE(T.find("$var wire 1 ! s $end"), std::string::npos);
  EXPECT_NE(T.find("$var wire 8 \" v [7:0] $end"), std::string::npos);
  // Everything dumps as x before its first value.
  size_t Dump = T.find("$dumpvars");
  ASSERT_NE(Dump, std::string::npos);
  EXPECT_NE(T.find("x!", Dump), std::string::npos);
  EXPECT_NE(T.find("bx \"", Dump), std::string::npos);
  // Cycle 0 reports both signals; cycle 1 suppresses the unchanged scalar.
  size_t C0 = T.find("#0");
  size_t C1 = T.find("#1", C0 + 1);
  ASSERT_NE(C1, std::string::npos);
  EXPECT_NE(T.find("1!", C0), std::string::npos);
  EXPECT_LT(T.find("1!", C0), C1);
  EXPECT_EQ(T.find("1!", C1), std::string::npos);
  EXPECT_NE(T.find("b00000001 \"", C1), std::string::npos);
  // A closing timestamp follows the last cycle.
  EXPECT_NE(T.find("#2", C1), std::string::npos);
  EXPECT_EQ(checkVcdShape(T), "");
}

TEST(VcdWriter, DottedNamesBecomeScopes) {
  sim::VcdWriter W("mac");
  std::vector<WaveSignal> Sigs = {WaveSignal("interp.y", 8),
                                  WaveSignal("netlist.y", 8),
                                  WaveSignal("clk", 1)};
  ASSERT_TRUE(W.begin(Sigs, wordPerSignal(Sigs)).ok());
  ASSERT_TRUE(W.finish(false).ok());
  const std::string &T = W.text();
  EXPECT_NE(T.find("$scope module interp $end"), std::string::npos);
  EXPECT_NE(T.find("$scope module netlist $end"), std::string::npos);
  // The leaf names drop the prefix inside their scope.
  EXPECT_EQ(T.find("interp.y [7:0]"), std::string::npos);
}

TEST(VcdWriter, AbortStillFlushesWellFormedOutput) {
  sim::VcdWriter W("t");
  WaveRecorder Rec(&W, obs::defaultContext());
  ASSERT_TRUE(Rec.begin({WaveSignal("a", 1)}).ok());
  Rec.stage(0, {true});
  Rec.cycle(0);
  ASSERT_TRUE(Rec.finish(true).ok());
  EXPECT_NE(W.text().find("$comment aborted $end"), std::string::npos);
  EXPECT_EQ(checkVcdShape(W.text()), "");
}

//===----------------------------------------------------------------------===//
// WaveJsonWriter: reticle-wave-v1
//===----------------------------------------------------------------------===//

TEST(WaveJsonWriter, EveryLineParsesAndNothingIsSuppressed) {
  sim::WaveJsonWriter W("mac", "interp");
  WaveRecorder Rec(&W, obs::defaultContext());
  ASSERT_TRUE(Rec.begin({WaveSignal("a", 4, WaveSignal::Kind::Input),
                         WaveSignal("y", 4, WaveSignal::Kind::Output)})
                  .ok());
  for (uint64_t C = 0; C < 3; ++C) {
    Rec.stage(0, {true, false, false, false});
    Rec.stage(1, {false, true, false, false});
    Rec.cycle(C); // unchanged after cycle 0, and still recorded
  }
  ASSERT_TRUE(Rec.finish(true).ok());

  std::istringstream In(W.text());
  std::string Line;
  size_t Lines = 0, Records = 0;
  Json Header, Footer;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    Result<Json> Doc = Json::parse(Line);
    ASSERT_TRUE(Doc.ok()) << Line << ": " << Doc.error();
    ++Lines;
    if (Doc.value().find("schema"))
      Header = Doc.take();
    else if (Doc.value().find("signal"))
      ++Records;
    else
      Footer = Doc.take();
  }
  // Header + footer + one record per signal per cycle, unsuppressed.
  EXPECT_EQ(Lines, 2u + 3u * 2u);
  EXPECT_EQ(Records, 6u);
  ASSERT_TRUE(Header.isObject());
  EXPECT_EQ(Header.find("schema")->asString(), "reticle-wave-v1");
  EXPECT_EQ(Header.find("engine")->asString(), "interp");
  ASSERT_EQ(Header.find("signals")->size(), 2u);
  EXPECT_EQ(Header.find("signals")->items()[0].find("kind")->asString(),
            "input");
  ASSERT_TRUE(Footer.isObject());
  EXPECT_EQ(Footer.find("cycles")->asInt(), 3);
  EXPECT_TRUE(Footer.find("aborted")->asBool());
}

//===----------------------------------------------------------------------===//
// Input-trace parsing (reticle-input-trace-v1)
//===----------------------------------------------------------------------===//

TEST(TraceIo, ParsesBoolIntAndVectorPorts) {
  ir::Function Fn = parseOk(R"(
    def f(a:i8, en:bool, v:i8<2>) -> (y:i8) {
      y:i8 = add(a, a) @??;
    }
  )");
  Result<Trace> T = sim::parseInputTrace(R"({
    "schema": "reticle-input-trace-v1",
    "cycles": [
      {"a": -3, "en": true, "v": [1, 2]},
      {"a": 7, "en": 0, "v": [-1, -2]}
    ]
  })",
                                         Fn);
  ASSERT_TRUE(T.ok()) << T.error();
  ASSERT_EQ(T.value().size(), 2u);
  EXPECT_EQ(T.value().get(0, "a")->str(), Value::splat(ir::Type::makeInt(8), -3).str());
  EXPECT_EQ(T.value().get(1, "en")->str(), Value::makeBool(false).str());
  EXPECT_EQ(T.value().get(0, "v")->toBits(),
            Value::fromLanes(ir::Type::makeInt(8, 2), {1, 2}).toBits());
}

TEST(TraceIo, RejectsBadDocuments) {
  ir::Function Fn = parseOk(R"(
    def f(a:i8) -> (y:i8) {
      y:i8 = add(a, a) @??;
    }
  )");
  auto Err = [&](const char *Text) {
    Result<Trace> T = sim::parseInputTrace(Text, Fn);
    EXPECT_FALSE(T.ok()) << Text;
    return T.ok() ? std::string() : T.error();
  };
  EXPECT_NE(Err(R"({"schema":"nope","cycles":[]})").find("schema"),
            std::string::npos);
  EXPECT_NE(Err(R"({"schema":"reticle-input-trace-v1","cycles":[{}]})")
                .find("missing"),
            std::string::npos);
  EXPECT_NE(Err(R"({"schema":"reticle-input-trace-v1",
                    "cycles":[{"a":1,"zz":2}]})")
                .find("unknown input"),
            std::string::npos);
  EXPECT_FALSE(Err("not json").empty());
}

// The four error paths the driver's diagnostics depend on must stay
// distinguishable: malformed JSON, a missing input column, a lane-count
// mismatch, and a non-monotone cycle record each name their own cause.
TEST(TraceIo, DistinctErrorPaths) {
  ir::Function Fn = parseOk(R"(
    def f(a:i8, v:i8<3>) -> (y:i8) {
      y:i8 = add(a, a) @??;
    }
  )");
  auto Err = [&](const std::string &Text) {
    Result<Trace> T = sim::parseInputTrace(Text, Fn);
    EXPECT_FALSE(T.ok()) << Text;
    return T.ok() ? std::string() : T.error();
  };

  // 1. Malformed JSON: the parser's own message, prefixed by the layer.
  std::string Malformed = Err(R"({"schema": "reticle-input-trace-v1",)");
  EXPECT_NE(Malformed.find("input trace"), std::string::npos) << Malformed;

  // 2. Missing input column names the cycle and the port.
  std::string Missing = Err(
      R"({"schema":"reticle-input-trace-v1",
          "cycles":[{"a":1,"v":[1,2,3]},{"a":2}]})");
  EXPECT_NE(Missing.find("cycle 1"), std::string::npos) << Missing;
  EXPECT_NE(Missing.find("'v' missing"), std::string::npos) << Missing;

  // 3. Lane-count mismatch reports expected vs got.
  std::string Lanes = Err(
      R"({"schema":"reticle-input-trace-v1",
          "cycles":[{"a":1,"v":[1,2]}]})");
  EXPECT_NE(Lanes.find("expected 3 lanes, got 2"), std::string::npos)
      << Lanes;

  // 4. Non-monotone cycle record: the reserved "cycle" self-check key
  // disagrees with the record's index.
  std::string NonMonotone = Err(
      R"({"schema":"reticle-input-trace-v1",
          "cycles":[{"cycle":0,"a":1,"v":[1,2,3]},
                    {"cycle":2,"a":2,"v":[1,2,3]}]})");
  EXPECT_NE(NonMonotone.find("non-monotone cycle"), std::string::npos)
      << NonMonotone;
  EXPECT_NE(NonMonotone.find("'cycle' is 2, expected 1"), std::string::npos)
      << NonMonotone;

  // The messages are pairwise distinct.
  EXPECT_NE(Malformed, Missing);
  EXPECT_NE(Missing, Lanes);
  EXPECT_NE(Lanes, NonMonotone);
}

TEST(TraceIo, CycleSelfCheckAcceptsInOrderRecords) {
  ir::Function Fn = parseOk(R"(
    def f(a:i8) -> (y:i8) {
      y:i8 = add(a, a) @??;
    }
  )");
  Result<Trace> T = sim::parseInputTrace(
      R"({"schema":"reticle-input-trace-v1",
          "cycles":[{"cycle":0,"a":1},{"cycle":1,"a":2}]})",
      Fn);
  ASSERT_TRUE(T.ok()) << T.error();
  EXPECT_EQ(T.value().size(), 2u);
  // The reserved key is a self-check, not an input: it never lands in
  // the trace.
  EXPECT_EQ(T.value().get(0, "cycle"), nullptr);
}

TEST(TraceIo, CycleKeyNotReservedWhenAPortClaimsIt) {
  // A function whose input is literally named "cycle" keeps the key as a
  // normal column; the self-check steps aside.
  ir::Function Fn = parseOk(R"(
    def f(cycle:i8) -> (y:i8) {
      y:i8 = add(cycle, cycle) @??;
    }
  )");
  Result<Trace> T = sim::parseInputTrace(
      R"({"schema":"reticle-input-trace-v1",
          "cycles":[{"cycle":42}]})",
      Fn);
  ASSERT_TRUE(T.ok()) << T.error();
  ASSERT_NE(T.value().get(0, "cycle"), nullptr);
  EXPECT_EQ(T.value().get(0, "cycle")->str(),
            Value::splat(ir::Type::makeInt(8), 42).str());
}

//===----------------------------------------------------------------------===//
// Engines driving sinks
//===----------------------------------------------------------------------===//

TEST(WaveEngines, InterpreterStreamsPortsAndInternals) {
  ir::Function Fn = parseOk(MacSource);
  Trace In = macTrace();
  WaveCapture Cap;
  Result<Trace> Out = interp::interpret(Fn, In, &Cap, obs::defaultContext());
  ASSERT_TRUE(Out.ok()) << Out.error();

  ASSERT_TRUE(Cap.finished());
  EXPECT_FALSE(Cap.aborted());
  EXPECT_EQ(Cap.cycles(), In.size());
  std::map<std::string, WaveSignal::Kind> Kinds;
  for (const WaveSignal &S : Cap.signals())
    Kinds[S.Name] = S.SigKind;
  EXPECT_EQ(Kinds.at("a"), WaveSignal::Kind::Input);
  EXPECT_EQ(Kinds.at("en"), WaveSignal::Kind::Input);
  EXPECT_EQ(Kinds.at("y"), WaveSignal::Kind::Output);
  EXPECT_EQ(Kinds.at("t0"), WaveSignal::Kind::Internal);
  EXPECT_EQ(Kinds.at("t1"), WaveSignal::Kind::Internal);
  // The streamed output values are exactly the returned trace's.
  for (size_t C = 0; C < In.size(); ++C) {
    std::optional<std::vector<bool>> V = Cap.valueAt(C, "y");
    ASSERT_TRUE(V) << C;
    EXPECT_EQ(*V, Out.value().get(C, "y")->toBits()) << C;
  }
}

TEST(WaveEngines, InterpreterAbortFlushesTruncatedCapture) {
  ir::Function Fn = parseOk(MacSource);
  Trace In = macTrace();
  In.steps()[2].erase("b"); // starve cycle 2
  WaveCapture Cap;
  Result<Trace> Out = interp::interpret(Fn, In, &Cap, obs::defaultContext());
  ASSERT_FALSE(Out.ok());
  EXPECT_NE(Out.error().find("cycle 2"), std::string::npos);
  // The sink was finished (aborted) and holds the completed cycles.
  EXPECT_TRUE(Cap.finished());
  EXPECT_TRUE(Cap.aborted());
  EXPECT_EQ(Cap.cycles(), 2u);
  ASSERT_TRUE(Cap.valueAt(1, "y"));
  // Replaying the truncated capture still renders well-formed VCD.
  sim::VcdWriter W("mac");
  ASSERT_TRUE(sim::replay({{&Cap, ""}}, W).ok());
  EXPECT_NE(W.text().find("$comment aborted $end"), std::string::npos);
  EXPECT_EQ(checkVcdShape(W.text()), "");
}

TEST(WaveEngines, NetlistAndInterpreterAgreeOnSharedPorts) {
  ir::Function Fn = parseOk(MacSource);
  Trace In = macTrace();

  WaveCapture InterpCap;
  Result<Trace> Ref = interp::interpret(Fn, In, &InterpCap, obs::defaultContext());
  ASSERT_TRUE(Ref.ok()) << Ref.error();

  core::CompileOptions Options;
  Options.Dev = device::Device::small();
  Result<core::CompileResult> R = core::compile(Fn, Options);
  ASSERT_TRUE(R.ok()) << R.error();
  WaveCapture NetCap;
  Result<Trace> Got = codegen::simulate(R.value().Verilog, In, &NetCap,
                                        obs::defaultContext());
  ASSERT_TRUE(Got.ok()) << Got.error();

  ASSERT_EQ(NetCap.cycles(), InterpCap.cycles());
  // The wave_diff property: every port signal both engines declare agrees
  // bit for bit, every cycle.
  std::set<std::string> NetPorts;
  for (const WaveSignal &S : NetCap.signals())
    if (S.SigKind != WaveSignal::Kind::Internal)
      NetPorts.insert(S.Name);
  size_t Shared = 0;
  for (const WaveSignal &S : InterpCap.signals()) {
    if (S.SigKind == WaveSignal::Kind::Internal || !NetPorts.count(S.Name))
      continue;
    ++Shared;
    for (uint64_t C = 0; C < InterpCap.cycles(); ++C) {
      std::optional<std::vector<bool>> A = InterpCap.valueAt(C, S.Name);
      std::optional<std::vector<bool>> B = NetCap.valueAt(C, S.Name);
      ASSERT_TRUE(A) << S.Name << " cycle " << C;
      ASSERT_TRUE(B) << S.Name << " cycle " << C;
      EXPECT_EQ(sim::bitsToString(*A), sim::bitsToString(*B))
          << S.Name << " cycle " << C;
    }
  }
  EXPECT_EQ(Shared, 5u); // a, b, c, en, y
}

// A single-engine run streams straight into its sinks; --sim=both
// captures and replays. Both paths must render the same bytes and bins.
TEST(WaveEngines, DirectSinksMatchCaptureThenReplay) {
  ir::Function Fn = parseOk(MacSource);
  Trace In = macTrace();
  core::CompileOptions Options;
  Options.Dev = device::Device::small();
  Result<core::CompileResult> R = core::compile(Fn, Options);
  ASSERT_TRUE(R.ok()) << R.error();
  Result<sim::Program> IrProg = sim::compile(Fn);
  ASSERT_TRUE(IrProg.ok()) << IrProg.error();
  Result<sim::Program> NetProg = sim::compile(R.value().Verilog);
  ASSERT_TRUE(NetProg.ok()) << NetProg.error();

  auto Run = [&](const std::string &Engine, sim::WaveSink *Sink) {
    const obs::Context &Ctx = obs::defaultContext();
    if (Engine == "interp")
      return interp::interpret(Fn, In, Sink, Ctx);
    if (Engine == "netlist")
      return codegen::simulate(R.value().Verilog, In, Sink, Ctx);
    return sim::execute(Engine == "vm-ir" ? IrProg.value() : NetProg.value(),
                        In, Sink, Ctx);
  };
  for (const std::string Engine : {"interp", "netlist", "vm-ir", "vm-netlist"}) {
    sim::VcdWriter Vcd("mac");
    sim::WaveJsonWriter Json("mac", Engine);
    obs::Coverage Cov;
    sim::ToggleCoverageSink Toggles(Cov);
    sim::WaveFanout Direct;
    Direct.add(Vcd);
    Direct.add(Json);
    Direct.add(Toggles);
    ASSERT_TRUE(Run(Engine, &Direct).ok()) << Engine;

    WaveCapture Cap;
    ASSERT_TRUE(Run(Engine, &Cap).ok()) << Engine;
    sim::VcdWriter ReVcd("mac");
    sim::WaveJsonWriter ReJson("mac", Engine);
    obs::Coverage ReCov;
    sim::ToggleCoverageSink ReToggles(ReCov);
    for (sim::WaveSink *Out :
         {static_cast<sim::WaveSink *>(&ReVcd),
          static_cast<sim::WaveSink *>(&ReJson),
          static_cast<sim::WaveSink *>(&ReToggles)})
      ASSERT_TRUE(sim::replay({{&Cap, ""}}, *Out).ok()) << Engine;

    EXPECT_EQ(Vcd.text(), ReVcd.text()) << Engine;
    EXPECT_EQ(Json.text(), ReJson.text()) << Engine;
    EXPECT_EQ(Cov.snapshot(), ReCov.snapshot()) << Engine;
    EXPECT_FALSE(Cov.snapshot().at("sim.toggle").empty()) << Engine;
  }
}

//===----------------------------------------------------------------------===//
// The stats document's sim section
//===----------------------------------------------------------------------===//

TEST(WaveStats, SimSectionReflectsTheRun) {
  ir::Function Fn = parseOk(MacSource);
  Trace In = macTrace();

  obs::Telemetry Telem;
  obs::RemarkStream Rem;
  obs::Coverage Cov;
  obs::Context Ctx{&Telem, &Rem, &Cov};
  WaveCapture Cap;
  ASSERT_TRUE(interp::interpret(Fn, In, &Cap, Ctx).ok());

  core::CompileOptions Options;
  Options.Dev = device::Device::small();
  Result<core::CompileResult> R = core::compile(Fn, Options);
  ASSERT_TRUE(R.ok()) << R.error();

  Json Doc = core::statsJson(R.value(), "mac.ret", Ctx);
  const Json *Sim = Doc.find("sim");
  ASSERT_NE(Sim, nullptr);
  // The section always exists with the full shape.
  ASSERT_NE(Sim->find("cycles"), nullptr);
  ASSERT_NE(Sim->find("events"), nullptr);
  ASSERT_NE(Sim->find("toggles"), nullptr);
  ASSERT_NE(Sim->find("signals"), nullptr);
  ASSERT_NE(Sim->find("interp"), nullptr);
  ASSERT_NE(Sim->find("netlist"), nullptr);
  EXPECT_EQ(Sim->find("cycles")->asInt(), 4);
  EXPECT_EQ(Sim->find("interp")->find("cycles")->asInt(), 4);
  EXPECT_GT(Sim->find("interp")->find("evals")->asInt(), 0);
  EXPECT_EQ(Sim->find("signals")->asInt(), 7); // a b c en t0 t1 y
  EXPECT_GT(Sim->find("events")->asInt(), 0);
}

} // namespace
