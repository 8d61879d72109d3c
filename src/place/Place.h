//===- place/Place.h - Instruction placement --------------------*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Instruction placement (Section 5.3): resolves every assembly
/// instruction's coordinate holes against a concrete device by solving the
/// paper's constraint system with a SAT solver (the paper uses Z3; this
/// project uses its own CDCL solver, src/sat):
///
///  - a coordinate must address a column of the instruction's primitive
///    kind;
///  - a coordinate must lie within that column's extent;
///  - relative constraints between instructions sharing coordinate
///    variables (e.g. cascades at (x, y) and (x, y+1)) must hold;
///  - all instructions occupy distinct slots.
///
/// Instructions sharing coordinate variables form *clusters* placed as one
/// rigid shape; the encoding assigns each cluster exactly one base
/// position and forbids slot overlap. After a first solution, optional
/// shrinking passes binary-search reduced areas and re-solve, compacting
/// the layout (Section 5.3's final paragraph). Each solve first tries
/// first-fit unit propagation, which finds the solver's own model whenever
/// the solver would need no search (see SatMode).
///
/// Every attempt writes its candidates into flat tables: each cluster's
/// first `cap` valid bases in (x, y) order, as (XBase, YBase) pairs in one
/// array, numbered exactly as the CNF numbers its variables. A member's
/// slot is its offset from the base; the valid base columns, the member
/// offsets and the per-kind demand are computed once per run, and pinned
/// instructions live in a dense occupancy grid. Propagation, the CNF and
/// the UNSAT explanation all read the same tables, through one slot ->
/// users table per attempt.
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_PLACE_PLACE_H
#define RETICLE_PLACE_PLACE_H

#include "device/Device.h"
#include "obs/Context.h"
#include "rasm/Asm.h"
#include "support/Result.h"

#include <array>
#include <string>
#include <vector>

namespace reticle {
namespace sat {
class ProofWriter;
} // namespace sat

namespace place {

/// How a placement attempt (the initial solve, each candidate-cap step
/// and each shrink probe) finds its layout.
///
///  - Scratch: every attempt encodes its candidate tables as a fresh CNF
///    and solves it (the historical behavior; kept as the oracle).
///  - Propagate: every attempt first runs first-fit unit propagation over
///    the same candidate tables, which replays the CDCL solver's own
///    conflict-free trajectory on that CNF (lowest-index decision, phase
///    true, unit propagation). The attempt builds and solves the CNF only
///    when propagation meets what would be the solver's first conflict.
///
/// Both modes share the enumeration and produce the same layout on every
/// attempt, so the placed program, the timeline and the proof log are
/// byte-identical across them; a change to the enumeration shows only
/// against the goldens in tests/goldens/place. Propagate is the default.
enum class SatMode : uint8_t { Scratch, Propagate };

/// Tuning knobs for placement.
struct PlacementOptions {
  /// Run the binary-search shrinking passes after the first solution.
  bool Shrink = true;
  /// How every attempt is answered: Scratch always solves the CNF,
  /// Propagate solves it only when first-fit propagation fails. The
  /// prechecks, the cap growth, the shrink probes' conflict budget and
  /// the UNSAT explanation are the same in both modes.
  SatMode Mode = SatMode::Propagate;
  /// When set, every SAT search of the run appends DRAT-style proof lines
  /// (learnt additions, deletions, assumption-core implications) here.
  sat::ProofWriter *Proof = nullptr;
};

/// One frame of the placement timeline: the initial solution or one probe
/// of the binary-search shrink. Each frame carries the layout accepted so
/// far (so failed probes still render the best-known floorplan) plus the
/// search effort the probe cost, letting `--floorplan-timeline` draw the
/// bounding box contracting probe by probe.
struct ShrinkProbe {
  enum class Axis : uint8_t { Initial, Column, Row };
  enum class Outcome : uint8_t { Sat, Unsat, Budget };
  Axis ProbeAxis = Axis::Initial;
  Outcome Result = Outcome::Sat;
  unsigned Bound = 0;     ///< tried bound on the probed axis (Initial: unused)
  uint64_t Conflicts = 0; ///< solver conflicts spent on this probe
  uint64_t Decisions = 0; ///< decisions spent on this probe
  unsigned MaxColumn = 0; ///< bounding box of the accepted layout so far
  unsigned MaxRow = 0;
  std::vector<device::Slot> Slots; ///< occupied slots of the accepted layout
};

/// One named constraint participating in an UNSAT explanation. Kind is one
/// of "capacity" (arithmetic precheck: demand exceeds slots), "range" (a
/// cluster has no in-bounds base position), "choose-one" (a cluster's
/// candidate-selection constraint) or "distinct" (a slot's at-most-one-user
/// constraint); Instr names the destination of a representative
/// instruction so the explanation points back into the program.
struct CoreConstraint {
  std::string Kind;
  std::string Instr;
  std::string Detail;
};

/// Facts about one placement run, reported by benchmarks and the unified
/// stats document (`reticlec --stats-json=`). The Sat block aggregates
/// sat::Solver::Statistics over every CNF solve of the run, shrink probes
/// included, so a slow placement can be attributed to search effort
/// rather than guessed at. An attempt answered by propagation adds no
/// solver time and zero conflicts, but counts the decisions and
/// propagations the solver would have made.
struct PlacementStats {
  unsigned Solves = 0;           ///< attempts past the prechecks
  unsigned CnfSolves = 0;        ///< attempts that built and solved the CNF
  unsigned ShrinkIterations = 0; ///< binary-search probes over both axes
  unsigned Vars = 0;             ///< variables in the last CNF built
  unsigned Clauses = 0;          ///< problem clauses in the last CNF built
  uint64_t Conflicts = 0;        ///< summed solver conflicts
  uint64_t Decisions = 0;        ///< summed decisions, propagation included
  uint64_t Propagations = 0;     ///< summed propagations, same rule
  uint64_t Restarts = 0;         ///< summed solver restarts
  uint64_t Learned = 0;          ///< summed learned clauses
  uint64_t BudgetExhausted = 0;  ///< solves that hit their conflict budget
  double SatMs = 0.0;            ///< wall-clock spent inside the SAT solver
  /// Learned-clause quality profile, summed over every solve (bucket
  /// layout documented on sat::Solver::Statistics).
  std::array<uint64_t, 8> LbdHistogram{};
  std::array<uint64_t, 8> LearnedSizeHistogram{};
  unsigned MaxColumn = 0; ///< highest column used
  unsigned MaxRow = 0;    ///< highest row used
  /// Which attempt strategy produced the run.
  SatMode Mode = SatMode::Propagate;
  /// Wall-clock of the whole shrink phase (enumeration, propagation and
  /// CNF solves of every probe); the headline "placement solve time" the
  /// benchmarks compare across modes.
  double ShrinkMs = 0.0;
  /// Wall-clock spent filling the candidate tables, summed over every
  /// attempt that got past the capacity precheck.
  double EnumerateMs = 0.0;
  /// Candidates those attempts enumerated, summed.
  uint64_t Candidates = 0;
  /// Shrink probes that got past the prechecks (answered by propagation
  /// or the CNF). The name predates propagation; benchmarks read it.
  uint64_t IncrementalProbes = 0;
  uint64_t PrecheckProbes = 0; ///< probes settled arithmetically
  /// The initial solve plus every shrink probe, in order.
  std::vector<ShrinkProbe> Timeline;
  /// Named constraints explaining a failed placement (empty on success):
  /// the minimized SAT core mapped back through the clause-group tags, or
  /// the arithmetic precheck / empty-range verdicts when the encoding was
  /// never solved.
  std::vector<CoreConstraint> Core;
};

/// Resolves all locations of \p Prog on \p Dev. Returns the placed,
/// device-specific program (all coordinates literal). Fails when the
/// constraints are unsatisfiable ("If Z3 cannot find a valid placement for
/// every instruction, placement fails").
Result<rasm::AsmProgram> place(const rasm::AsmProgram &Prog,
                               const device::Device &Dev,
                               const PlacementOptions &Options = {},
                               PlacementStats *Stats = nullptr,
                               const obs::Context &Ctx = obs::defaultContext());

/// Independently validates that \p Placed realizes \p Original on \p Dev:
/// literal coordinates on valid distinct slots of the right kind, with
/// every literal pin and every relative variable constraint of the
/// original respected. Used by tests and as a post-placement assertion.
Status checkPlacement(const rasm::AsmProgram &Original,
                      const rasm::AsmProgram &Placed,
                      const device::Device &Dev);

} // namespace place
} // namespace reticle

#endif // RETICLE_PLACE_PLACE_H
