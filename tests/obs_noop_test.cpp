//===- tests/obs_noop_test.cpp - Compiled-out telemetry tests ------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// Built with RETICLE_NO_TELEMETRY (see tests/CMakeLists.txt) and linked
/// WITHOUT reticle_obs: proves the compiled-out header is self-contained —
/// the whole API collapses to inline no-ops referencing no symbol of
/// Telemetry.cpp — and that instrumented code still compiles against it.
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_NO_TELEMETRY
#error "this test must be compiled with RETICLE_NO_TELEMETRY"
#endif

#include "obs/Coverage.h"
#include "obs/Remarks.h"
#include "obs/Telemetry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace reticle;

TEST(ObsNoop, FullApiSurfaceIsInert) {
  // The instrumentation idiom used throughout the compiler must compile
  // and do nothing.
  static obs::Counter &C = obs::counter("noop.counter");
  ++C;
  C++;
  C += 100;
  EXPECT_EQ(C.load(), 0u);
  C.reset();

  obs::gauge("noop.gauge").set(3.5);
  EXPECT_DOUBLE_EQ(obs::gauge("noop.gauge").load(), 0.0);

  obs::Histogram &H = obs::defaultTelemetry().histogram("noop.hist");
  H.record(1.5);
  EXPECT_EQ(H.count(), 0u);
  EXPECT_DOUBLE_EQ(H.percentile(99), 0.0);
  EXPECT_EQ(obs::defaultTelemetry().foldedStacks(), "");

  obs::enableTracing();
  EXPECT_FALSE(obs::tracingEnabled());
  {
    obs::Span Sp("noop.span");
    Sp.arg("i", int64_t(-1));
    Sp.arg("u", uint64_t(1));
    Sp.arg("n", 2u);
    Sp.arg("d", 0.5);
    Sp.arg("c", "literal");
    Sp.arg("s", std::string("string"));
  }
  obs::instant("noop.instant");
  obs::resetForTest();
}

TEST(ObsNoop, RemarksApiSurfaceIsInert) {
  obs::enableRemarks();
  EXPECT_FALSE(obs::remarksEnabled());
  if (obs::remarksEnabled())
    FAIL() << "the call-site guard must be constant-false";
  obs::Remark("isel", "pattern")
      .instr("t0")
      .message("covered")
      .arg("i", int64_t(-1))
      .arg("u", uint64_t(1))
      .arg("n", 2u)
      .arg("d", 0.5)
      .arg("c", "literal")
      .arg("s", std::string("string"));
  EXPECT_EQ(obs::remarkCount(), 0u);
  EXPECT_EQ(obs::remarksText(), "");
  EXPECT_EQ(obs::remarksJsonl("p.ret"), "");
  obs::clearRemarks();
}

TEST(ObsNoop, RemarkFilesAreEmptyButWritable) {
  std::string Path = ::testing::TempDir() + "obs_noop_remarks.txt";
  ASSERT_TRUE(obs::writeRemarksText(Path).ok());
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  EXPECT_EQ(In.peek(), std::ifstream::traits_type::eof());
  std::remove(Path.c_str());
  EXPECT_FALSE(obs::writeRemarksText("/nonexistent-dir/x/y.txt").ok());
  EXPECT_FALSE(obs::writeRemarksJsonl("/nonexistent-dir/x/y.jsonl", "p").ok());
}

TEST(ObsNoop, CoverageApiSurfaceIsInert) {
  // The collectors' idiom must compile against the no-op class and record
  // nothing. Note the Json-returning free helpers (coverageJson /
  // coverageDoc) live in reticle_obs and are deliberately NOT exercised
  // here: this binary proves the header alone is self-contained.
  obs::Coverage Cov;
  Cov.declare("ir.op", "add");
  Cov.hit("ir.op", "add");
  Cov.hit("sim.toggle", "y[0]:01", 3);
  Cov.mergeSpace("sim.toggle", obs::CoverageBins{{"y[1]:10", 1}});
  EXPECT_TRUE(Cov.empty());
  EXPECT_TRUE(Cov.snapshot().empty());

  obs::Coverage Other;
  Other.hit("s", "b");
  Cov.merge(Other);
  Cov.merge(Other.snapshot());
  EXPECT_TRUE(Cov.empty());
  Cov.reset();

  obs::defaultCoverage().hit("s", "b");
  EXPECT_TRUE(obs::defaultCoverage().empty());
}

TEST(ObsNoop, TraceOutputIsEmptyButValid) {
  EXPECT_EQ(obs::traceJson(), "{\"traceEvents\":[]}");

  std::string Path = ::testing::TempDir() + "obs_noop_trace.json";
  ASSERT_TRUE(obs::writeTrace(Path).ok());
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  EXPECT_EQ(Buffer.str(), "{\"traceEvents\":[]}\n");
  std::remove(Path.c_str());

  EXPECT_FALSE(obs::writeTrace("/nonexistent-dir/x/y.json").ok());
}
