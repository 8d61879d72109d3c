//===- tests/wave_golden_test.cpp - Byte-exact waveform goldens --------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// Pins the observable output of the word-level waveform path with data:
/// the VCD text, the reticle-wave-v1 JSONL stream, the toggle
/// reticle-coverage-v1 document and the sim.events / sim.toggles /
/// sim.signals counters of `fsm_5` and `tensordot_3` (checked in under
/// tests/goldens/wave as .ret programs with a fixed-seed 64-cycle input
/// trace), on vm-ir and vm-netlist. Every artifact is regenerated twice —
/// with the sinks attached to the engine directly and through
/// capture-then-replay — and compared byte for byte against the goldens.
/// The --sim=both merge (all four engines captured, replayed with
/// per-engine prefixes) is pinned by its counters and by the size and
/// FNV-1a digest of its VCD, JSONL and coverage documents.
///
/// The abort test drives a trace whose cycle 3 carries an input of the
/// wrong type through all four engines: the waveforms must flush as
/// aborted after three cycles and the toggle bins must equal a clean
/// three-cycle run's.
///
/// Set RETICLE_UPDATE_GOLDENS=1 to rewrite the goldens from the current
/// code instead of comparing (then review the diff).
///
//===----------------------------------------------------------------------===//

#include "codegen/NetlistSim.h"
#include "core/Compiler.h"
#include "interp/Interp.h"
#include "interp/TraceIo.h"
#include "interp/Wave.h"
#include "ir/Parser.h"
#include "obs/Coverage.h"
#include "obs/Json.h"
#include "obs/Telemetry.h"
#include "sim/Compile.h"
#include "sim/Vm.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

using namespace reticle;
using interp::Trace;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

bool updating() {
  const char *V = std::getenv("RETICLE_UPDATE_GOLDENS");
  return V && std::string(V) == "1";
}

/// Compares \p Text with golden file \p Name (or rewrites it when
/// updating). Mismatches report the first differing line.
void expectGolden(const std::string &Name, const std::string &Text,
                  const std::string &What) {
  std::string Path = std::string(RETICLE_WAVE_GOLDENS_DIR) + "/" + Name;
  if (updating()) {
    std::ofstream(Path, std::ios::binary) << Text;
    return;
  }
  std::string Golden = readFile(Path);
  ASSERT_FALSE(Golden.empty()) << "missing golden " << Path;
  if (Golden == Text)
    return;
  std::istringstream A(Golden), B(Text);
  std::string La, Lb;
  size_t Line = 1;
  while (std::getline(A, La) && std::getline(B, Lb) && La == Lb)
    ++Line;
  ADD_FAILURE() << What << ": " << Name << " differs from the golden at line "
                << Line << "\n  golden: " << La << "\n  actual: " << Lb;
}

std::string fnv1a(const std::string &Text) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : Text) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

/// One golden program: its IR, the netlist it compiles to, both
/// simulation programs, and the checked-in input trace.
struct Subject {
  std::string Name;
  ir::Function Fn;
  core::CompileResult Compiled;
  sim::Program Ir;
  sim::Program Netlist;
  Trace Input;
};

/// Unwraps \p R; without the value nothing later can run, so a failure
/// stops the binary with the error.
template <typename T> T must(Result<T> R, const std::string &What) {
  if (!R) {
    std::fprintf(stderr, "%s: %s\n", What.c_str(), R.error().c_str());
    std::abort();
  }
  return R.take();
}

Subject load(const std::string &Name) {
  const std::string Stem = std::string(RETICLE_WAVE_GOLDENS_DIR) + "/" + Name;
  ir::Function Fn = must(ir::parseFunction(readFile(Stem + ".ret")), Name);
  Trace In = must(sim::parseInputTrace(readFile(Stem + ".trace.json"), Fn),
                  Name + ".trace.json");
  core::CompileResult R = must(core::compile(Fn, {}), Name + " compile");
  sim::Program Ir = must(sim::compile(Fn), Name + " vm-ir");
  sim::Program Net = must(sim::compile(R.Verilog), Name + " vm-netlist");
  return {Name,           std::move(Fn),  std::move(R),
          std::move(Ir),  std::move(Net), std::move(In)};
}

/// Runs \p Engine over \p Input with \p Sink attached, counting into
/// \p Ctx.
Result<Trace> run(const Subject &S, const std::string &Engine,
                  const Trace &Input, sim::WaveSink *Sink,
                  const obs::Context &Ctx) {
  if (Engine == "interp")
    return interp::interpret(S.Fn, Input, Sink, Ctx);
  if (Engine == "netlist")
    return codegen::simulate(S.Compiled.Verilog, Input, Sink, Ctx);
  return sim::execute(Engine == "vm-ir" ? S.Ir : S.Netlist, Input, Sink,
                      Ctx);
}

/// The artifacts one observed run leaves behind.
struct Artifacts {
  std::string Vcd;
  std::string Wave;
  std::string Coverage;
  std::string Counters;
};

/// A private telemetry context, so counters reflect exactly one
/// artifact's runs.
struct Counting {
  obs::Telemetry Telem;
  obs::RemarkStream Rem;
  obs::Context Ctx{&Telem, &Rem};

  std::string json() const {
    obs::Json Doc = obs::Json::object();
    for (const char *Name : {"sim.events", "sim.signals", "sim.toggles"})
      Doc.set(Name, Ctx.counter(Name).load());
    return Doc.str(2) + "\n";
  }
};

std::string coverageText(const std::string &Program, obs::Coverage &Cov) {
  return obs::coverageDoc(Program, Cov.snapshot()).str(2) + "\n";
}

/// The sinks attached to a single engine run, the way `reticlec --run`
/// attaches them.
Artifacts direct(const Subject &S, const std::string &Engine) {
  sim::VcdWriter Vcd(S.Name);
  sim::WaveJsonWriter Wave(S.Name, Engine);
  obs::Coverage Cov;
  sim::ToggleCoverageSink Toggles(Cov);
  sim::WaveFanout Fan;
  Fan.add(Vcd);
  Fan.add(Wave);
  Fan.add(Toggles);
  Counting C;
  Result<Trace> Out = run(S, Engine, S.Input, &Fan, C.Ctx);
  EXPECT_TRUE(Out.ok()) << Out.error();
  return {Vcd.text(), Wave.text(), coverageText(S.Name, Cov), C.json()};
}

/// The same artifacts from captured runs of \p Engines replayed into fresh
/// sinks, with per-engine name prefixes when there are several (as
/// `--sim=both` does).
Artifacts replayed(const Subject &S, const std::vector<std::string> &Engines,
                   const std::string &EngineTag) {
  std::vector<sim::WaveCapture> Caps(Engines.size());
  std::vector<std::pair<const sim::WaveCapture *, std::string>> Sources;
  Counting C;
  for (size_t I = 0; I < Engines.size(); ++I) {
    Result<Trace> Out = run(S, Engines[I], S.Input, &Caps[I], C.Ctx);
    EXPECT_TRUE(Out.ok()) << Out.error();
    Sources.push_back({&Caps[I], Engines.size() == 1 ? "" : Engines[I]});
  }
  sim::VcdWriter Vcd(S.Name);
  sim::WaveJsonWriter Wave(S.Name, EngineTag);
  obs::Coverage Cov;
  sim::ToggleCoverageSink Toggles(Cov);
  EXPECT_TRUE(sim::replay(Sources, Vcd).ok());
  EXPECT_TRUE(sim::replay(Sources, Wave).ok());
  EXPECT_TRUE(sim::replay(Sources, Toggles).ok());
  return {Vcd.text(), Wave.text(), coverageText(S.Name, Cov), C.json()};
}

// std::string rather than const char * parameters: gtest prints a char
// pointer inside a tuple with its address, and CTest copies that printout
// into the test name, which would then change from one build to the next.
class WaveGolden
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(WaveGolden, DirectAndReplayedSinksMatchTheGoldens) {
  Subject S = load(std::get<0>(GetParam()));
  const std::string Engine = std::get<1>(GetParam());
  const std::string Stem = S.Name + "." + Engine;

  Artifacts D = direct(S, Engine);
  expectGolden(Stem + ".vcd", D.Vcd, "direct");
  expectGolden(Stem + ".wave.jsonl", D.Wave, "direct");
  expectGolden(Stem + ".coverage.json", D.Coverage, "direct");
  expectGolden(Stem + ".counters.json", D.Counters, "direct");
  if (updating())
    return;

  Artifacts R = replayed(S, {Engine}, Engine);
  expectGolden(Stem + ".vcd", R.Vcd, "capture-replay");
  expectGolden(Stem + ".wave.jsonl", R.Wave, "capture-replay");
  expectGolden(Stem + ".coverage.json", R.Coverage, "capture-replay");
  expectGolden(Stem + ".counters.json", R.Counters, "capture-replay");
}

INSTANTIATE_TEST_SUITE_P(
    Programs, WaveGolden,
    ::testing::Combine(::testing::Values("fsm_5", "tensordot_3"),
                       ::testing::Values("vm-ir", "vm-netlist")),
    [](const auto &Info) {
      std::string Name =
          std::get<0>(Info.param) + "_" + std::get<1>(Info.param);
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

class WaveGoldenBoth : public ::testing::TestWithParam<const char *> {};

TEST_P(WaveGoldenBoth, AllEnginesReplayedWithPrefixesMatchTheGoldens) {
  Subject S = load(GetParam());
  Artifacts A =
      replayed(S, {"interp", "netlist", "vm-ir", "vm-netlist"}, "both");
  obs::Json Digest = obs::Json::object();
  Digest.set("vcd_bytes", static_cast<uint64_t>(A.Vcd.size()));
  Digest.set("vcd_fnv1a64", fnv1a(A.Vcd));
  Digest.set("wave_bytes", static_cast<uint64_t>(A.Wave.size()));
  Digest.set("wave_fnv1a64", fnv1a(A.Wave));
  Digest.set("coverage_bytes", static_cast<uint64_t>(A.Coverage.size()));
  Digest.set("coverage_fnv1a64", fnv1a(A.Coverage));
  expectGolden(S.Name + ".both.digest.json", Digest.str(2) + "\n",
               "--sim=both");
  expectGolden(S.Name + ".both.counters.json", A.Counters, "--sim=both");
}

INSTANTIATE_TEST_SUITE_P(Programs, WaveGoldenBoth,
                         ::testing::Values("fsm_5", "tensordot_3"));

//===----------------------------------------------------------------------===//
// Abort path
//===----------------------------------------------------------------------===//

TEST(WaveAbort, WrongTypedInputAtCycle3FlushesOnEveryEngine) {
  Subject S = load("fsm_5");
  Trace Clean, Broken;
  for (size_t C = 0; C < 5; ++C) {
    if (C < 3)
      Clean.appendStep() = S.Input.step(C);
    Broken.appendStep() = S.Input.step(C);
  }
  // `in` is an i8 port; a bool there fails the type (and width) check.
  Broken.steps()[3]["in"] = interp::Value::makeBool(true);

  for (const std::string Engine :
       {"interp", "netlist", "vm-ir", "vm-netlist"}) {
    obs::Coverage CleanCov;
    sim::ToggleCoverageSink CleanToggles(CleanCov);
    Counting C0;
    ASSERT_TRUE(run(S, Engine, Clean, &CleanToggles, C0.Ctx).ok()) << Engine;

    sim::VcdWriter Vcd(S.Name);
    sim::WaveJsonWriter Wave(S.Name, Engine);
    obs::Coverage Cov;
    sim::ToggleCoverageSink Toggles(Cov);
    sim::WaveFanout Fan;
    Fan.add(Vcd);
    Fan.add(Wave);
    Fan.add(Toggles);
    Counting C1;
    Result<Trace> Out = run(S, Engine, Broken, &Fan, C1.Ctx);
    ASSERT_FALSE(Out.ok()) << Engine;
    EXPECT_NE(Out.error().find("'in'"), std::string::npos)
        << Engine << ": " << Out.error();

    // Cycles 0-2 are dumped, then the closing timestamp and the marker.
    const std::string &T = Vcd.text();
    for (const char *Stamp : {"\n#0\n", "\n#1\n", "\n#2\n"})
      EXPECT_NE(T.find(Stamp), std::string::npos) << Engine << Stamp;
    const std::string Tail = "\n#3\n$comment aborted $end\n";
    ASSERT_GE(T.size(), Tail.size()) << Engine;
    EXPECT_EQ(T.substr(T.size() - Tail.size()), Tail) << Engine;
    EXPECT_EQ(T.find("\n#4\n"), std::string::npos) << Engine;

    EXPECT_EQ(Cov.snapshot(), CleanCov.snapshot()) << Engine;

    const std::string &W = Wave.text();
    size_t LastLine = W.rfind('\n', W.size() - 2);
    Result<obs::Json> Footer = obs::Json::parse(W.substr(LastLine + 1));
    ASSERT_TRUE(Footer.ok()) << Engine;
    ASSERT_NE(Footer.value().find("aborted"), nullptr) << Engine;
    EXPECT_TRUE(Footer.value().find("aborted")->asBool()) << Engine;
    EXPECT_EQ(Footer.value().find("cycles")->asInt(), 3) << Engine;

    // The counters cover exactly the three observed cycles.
    EXPECT_EQ(C1.json(), C0.json()) << Engine;
  }
}

} // namespace
