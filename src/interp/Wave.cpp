//===- interp/Wave.cpp - Per-cycle waveform sinks -------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "interp/Wave.h"

#include "obs/Coverage.h"
#include "obs/Json.h"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cstring>
#include <map>

using namespace reticle;
using namespace reticle::sim;

std::string sim::bitsToString(const std::vector<bool> &Bits) {
  std::string S;
  S.reserve(Bits.size());
  for (size_t I = Bits.size(); I-- > 0;)
    S += Bits[I] ? '1' : '0';
  return S;
}

//===----------------------------------------------------------------------===//
// WaveLayout
//===----------------------------------------------------------------------===//

unsigned WaveSlice::width() const {
  return Mask == 0 ? 0 : 64 - static_cast<unsigned>(std::countl_zero(Mask));
}

void WaveLayout::add(uint32_t Base, unsigned Width, unsigned LaneWidth,
                     unsigned Lanes) {
  unsigned Bit = 0;
  for (unsigned L = 0; L < Lanes && Bit < Width; ++L) {
    unsigned Take = std::min({LaneWidth, Width - Bit, 64u});
    uint64_t Mask = Take >= 64 ? ~uint64_t(0) : (uint64_t(1) << Take) - 1;
    Slices.push_back({Base + L, Bit, Mask});
    Bit += Take;
  }
  First.push_back(static_cast<uint32_t>(Slices.size()));
}

/// The text of every byte value, MSB first ("00000000" .. "11111111").
static const std::array<std::array<char, 8>, 256> ByteText = [] {
  std::array<std::array<char, 8>, 256> T{};
  for (unsigned B = 0; B < 256; ++B)
    for (unsigned K = 0; K < 8; ++K)
      T[B][K] = static_cast<char>('0' + ((B >> (7 - K)) & 1));
  return T;
}();

unsigned WaveLayout::width(unsigned Id) const {
  unsigned W = 0;
  for (uint32_t S = First[Id]; S < First[Id + 1]; ++S)
    W += Slices[S].width();
  return W;
}

char *WaveLayout::writeBits(char *P, const uint64_t *Vals, unsigned Id) const {
  for (uint32_t S = First[Id + 1]; S-- > First[Id];) {
    const unsigned N = Slices[S].width();
    const uint64_t V = Vals[S];
    // The top N % 8 bits one at a time, then whole bytes from the table.
    for (unsigned K = N; K-- > N / 8 * 8;)
      *P++ = static_cast<char>('0' + ((V >> K) & 1));
    for (unsigned Byte = N / 8; Byte-- > 0; P += 8)
      std::memcpy(P, ByteText[(V >> (8 * Byte)) & 0xFF].data(), 8);
  }
  return P;
}

void WaveLayout::appendBits(std::string &Out, const uint64_t *Vals,
                            unsigned Id) const {
  size_t Pos = Out.size();
  Out.resize(Pos + width(Id));
  writeBits(Out.data() + Pos, Vals, Id);
}

std::vector<bool> WaveLayout::bits(const uint64_t *Vals, unsigned Id) const {
  std::vector<bool> Bits;
  for (uint32_t S = First[Id]; S < First[Id + 1]; ++S)
    for (unsigned K = 0; K < Slices[S].width(); ++K)
      Bits.push_back((Vals[S] >> K) & 1);
  return Bits;
}

//===----------------------------------------------------------------------===//
// WaveRecorder
//===----------------------------------------------------------------------===//

WaveRecorder::WaveRecorder(WaveSink *Sink, const obs::Context &Ctx)
    : Sink(Sink) {
  if (Sink) {
    Events = &Ctx.counter("sim.events");
    Toggles = &Ctx.counter("sim.toggles");
    SignalsCount = &Ctx.counter("sim.signals");
  }
}

Status WaveRecorder::begin(std::vector<WaveSignal> Sigs, WaveLayout L) {
  if (!Sink)
    return Status::success();
  if (L.signals() != Sigs.size())
    return Status::failure("wave layout describes " +
                           std::to_string(L.signals()) + " signal(s), " +
                           std::to_string(Sigs.size()) + " declared");
  Signals = std::move(Sigs);
  Layout = std::move(L);
  Cur.assign(Layout.Slices.size(), 0);
  Prev.assign(Layout.Slices.size(), 0);
  Changed.assign(Signals.size(), 0);
  SignalOf.resize(Layout.Slices.size());
  for (uint32_t Id = 0; Id < Signals.size(); ++Id)
    for (uint32_t S = Layout.First[Id]; S < Layout.First[Id + 1]; ++S)
      SignalOf[S] = Id;
  TotalWidth = 0;
  for (const WaveSlice &S : Layout.Slices)
    TotalWidth += S.width();
  Seen = false;
  *SignalsCount += Signals.size();
  return Sink->begin(Signals, Layout);
}

Status WaveRecorder::begin(std::vector<WaveSignal> Sigs) {
  if (!Sink)
    return Status::success();
  WaveLayout L;
  uint32_t Words = 0;
  for (const WaveSignal &S : Sigs) {
    unsigned Lanes = (S.Width + 63) / 64;
    L.add(Words, S.Width, 64, Lanes);
    Words += Lanes;
  }
  Staged.assign(Words, 0);
  return begin(std::move(Sigs), std::move(L));
}

void WaveRecorder::stage(unsigned Id, const std::vector<bool> &Bits) {
  if (!Sink || Id >= Signals.size())
    return;
  const uint32_t Lo = Layout.First[Id], Hi = Layout.First[Id + 1];
  for (uint32_t S = Lo; S < Hi; ++S)
    Staged[Layout.Slices[S].Word] = 0;
  size_t N = std::min<size_t>(Bits.size(), Signals[Id].Width);
  for (size_t B = 0; B < N; ++B)
    if (Bits[B])
      Staged[Layout.Slices[Lo + B / 64].Word] |= uint64_t(1) << (B % 64);
}

void WaveRecorder::cycle(uint64_t Cycle, const uint64_t *Words) {
  if (!Sink)
    return;
  if (!Words)
    Words = Staged.data();
  const WaveSlice *Sl = Layout.Slices.data();
  const size_t NumSlices = Layout.Slices.size();
  const uint32_t N = static_cast<uint32_t>(Signals.size());
  size_t NumChanged = 0;
  uint64_t Flipped = 0;
  if (!Seen) {
    // First sight: every signal changes from unknown, across its full
    // width, and is its own baseline.
    for (size_t S = 0; S < NumSlices; ++S)
      Prev[S] = Cur[S] = Words[Sl[S].Word] & Sl[S].Mask;
    for (uint32_t Id = 0; Id < N; ++Id)
      Changed[NumChanged++] = Id;
    Flipped = TotalWidth;
    Seen = true;
  } else {
    // One pass gathers and compares. Slices are in signal order, so the
    // changed ids come out ascending.
    uint32_t Last = N;
    for (size_t S = 0; S < NumSlices; ++S) {
      uint64_t V = Words[Sl[S].Word] & Sl[S].Mask;
      uint64_t D = V ^ Prev[S];
      Cur[S] = V;
      if (!D)
        continue;
      Flipped += static_cast<uint64_t>(std::popcount(D));
      if (SignalOf[S] != Last)
        Changed[NumChanged++] = Last = SignalOf[S];
    }
  }
  *Events += N;
  if (Flipped)
    *Toggles += Flipped;

  WaveFrame F;
  F.Cycle = Cycle;
  F.End = N;
  F.Cur = Cur.data();
  F.Prev = Prev.data();
  F.Changed = std::span<const uint32_t>(Changed.data(), NumChanged);
  Sink->cycle(F);
  Cur.swap(Prev);
}

Status WaveRecorder::finish(bool Aborted) {
  if (!Sink)
    return Status::success();
  return Sink->finish(Aborted);
}

//===----------------------------------------------------------------------===//
// WaveFanout
//===----------------------------------------------------------------------===//

Status WaveFanout::begin(const std::vector<WaveSignal> &Signals,
                         const WaveLayout &Layout) {
  for (WaveSink *S : Sinks)
    if (Status St = S->begin(Signals, Layout); !St)
      return St;
  return Status::success();
}

void WaveFanout::cycle(const WaveFrame &F) {
  for (WaveSink *S : Sinks)
    S->cycle(F);
}

Status WaveFanout::finish(bool Aborted) {
  Status First = Status::success();
  for (WaveSink *S : Sinks)
    if (Status St = S->finish(Aborted); !St && First)
      First = St;
  return First;
}

//===----------------------------------------------------------------------===//
// WaveCapture
//===----------------------------------------------------------------------===//

Status WaveCapture::begin(const std::vector<WaveSignal> &Signals,
                          const WaveLayout &L) {
  Sigs = Signals;
  Layout = L;
  return Status::success();
}

void WaveCapture::cycle(const WaveFrame &F) {
  Frame Fr;
  Fr.Cycle = F.Cycle;
  Fr.Begin = F.Begin;
  Fr.End = F.End;
  Fr.Words.assign(F.Cur, F.Cur + Layout.Slices.size());
  Fr.Changed.assign(F.Changed.begin(), F.Changed.end());
  Frames.push_back(std::move(Fr));
}

Status WaveCapture::finish(bool WasAborted) {
  Done = true;
  Aborted = WasAborted;
  return Status::success();
}

const WaveCapture::Frame *WaveCapture::frameOf(uint64_t Cycle,
                                               unsigned Id) const {
  auto It = std::lower_bound(
      Frames.begin(), Frames.end(), Cycle,
      [](const Frame &F, uint64_t C) { return F.Cycle < C; });
  for (; It != Frames.end() && It->Cycle == Cycle; ++It)
    if (Id >= It->Begin && Id < It->End)
      return &*It;
  return nullptr;
}

std::optional<std::vector<bool>> WaveCapture::valueAt(uint64_t Cycle,
                                                      unsigned Id) const {
  const Frame *F = frameOf(Cycle, Id);
  if (!F)
    return std::nullopt;
  return Layout.bits(F->Words.data(), Id);
}

std::optional<std::vector<bool>>
WaveCapture::valueAt(uint64_t Cycle, std::string_view Name) const {
  for (unsigned Id = 0; Id < Sigs.size(); ++Id)
    if (Sigs[Id].Name == Name)
      return valueAt(Cycle, Id);
  return std::nullopt;
}

bool WaveCapture::changedAt(uint64_t Cycle, unsigned Id) const {
  const Frame *F = frameOf(Cycle, Id);
  return F && std::binary_search(F->Changed.begin(), F->Changed.end(), Id);
}

//===----------------------------------------------------------------------===//
// replay
//===----------------------------------------------------------------------===//

Status sim::replay(
    const std::vector<std::pair<const WaveCapture *, std::string>> &Sources,
    WaveSink &Out) {
  // The merged layout concatenates the sources' slices; its words are the
  // merged slice indexes themselves.
  std::vector<WaveSignal> Merged;
  WaveLayout Layout;
  std::vector<uint32_t> SigOff, SliceOff;
  uint64_t Cycles = 0;
  bool Aborted = false;
  for (const auto &[Cap, Prefix] : Sources) {
    SigOff.push_back(static_cast<uint32_t>(Merged.size()));
    SliceOff.push_back(static_cast<uint32_t>(Layout.Slices.size()));
    for (const WaveSignal &S : Cap->signals()) {
      std::string Name = Prefix.empty() ? S.Name : Prefix + "." + S.Name;
      Merged.emplace_back(std::move(Name), S.Width, S.SigKind);
    }
    const WaveLayout &L = Cap->layout();
    for (const WaveSlice &S : L.Slices)
      Layout.Slices.push_back(
          {static_cast<uint32_t>(Layout.Slices.size()), S.Bit, S.Mask});
    for (size_t Id = 1; Id < L.First.size(); ++Id)
      Layout.First.push_back(SliceOff.back() + L.First[Id]);
    Cycles = std::max(Cycles, Cap->cycles());
    Aborted = Aborted || Cap->aborted();
  }
  if (Status S = Out.begin(Merged, Layout); !S)
    return S;

  std::vector<uint64_t> Cur(Layout.Slices.size(), 0);
  std::vector<uint64_t> Prev(Layout.Slices.size(), 0);
  std::vector<uint8_t> Seen(Merged.size(), 0);
  std::vector<size_t> Next(Sources.size(), 0);
  std::vector<uint32_t> Changed;
  for (uint64_t C = 0; C < Cycles; ++C) {
    for (size_t I = 0; I < Sources.size(); ++I) {
      const std::vector<WaveCapture::Frame> &Frames =
          Sources[I].first->frames();
      const WaveLayout &L = Sources[I].first->layout();
      for (; Next[I] < Frames.size() && Frames[Next[I]].Cycle == C;
           ++Next[I]) {
        const WaveCapture::Frame &Fr = Frames[Next[I]];
        const uint32_t Lo = L.First[Fr.Begin], Hi = L.First[Fr.End];
        std::copy(Fr.Words.begin() + Lo, Fr.Words.begin() + Hi,
                  Cur.begin() + SliceOff[I] + Lo);
        for (uint32_t Id = Fr.Begin; Id < Fr.End; ++Id)
          if (!Seen[SigOff[I] + Id]) {
            Seen[SigOff[I] + Id] = 1;
            for (uint32_t S = L.First[Id]; S < L.First[Id + 1]; ++S)
              Prev[SliceOff[I] + S] = Cur[SliceOff[I] + S];
          }
        Changed.clear();
        for (uint32_t Id : Fr.Changed)
          Changed.push_back(SigOff[I] + Id);

        WaveFrame F;
        F.Cycle = C;
        F.Begin = SigOff[I] + Fr.Begin;
        F.End = SigOff[I] + Fr.End;
        F.Cur = Cur.data();
        F.Prev = Prev.data();
        F.Changed = Changed;
        Out.cycle(F);
        std::copy(Cur.begin() + SliceOff[I] + Lo,
                  Cur.begin() + SliceOff[I] + Hi,
                  Prev.begin() + SliceOff[I] + Lo);
      }
    }
  }
  return Out.finish(Aborted);
}

//===----------------------------------------------------------------------===//
// ToggleCoverageSink
//===----------------------------------------------------------------------===//

Status ToggleCoverageSink::begin(const std::vector<WaveSignal> &Signals,
                                 const WaveLayout &L) {
  Sigs = Signals;
  Layout = L;
  SliceBase.assign(Layout.Slices.size(), 0);
  uint64_t Bits = 0;
  for (uint32_t Id = 0; Id < Layout.signals(); ++Id) {
    for (uint32_t S = Layout.First[Id]; S < Layout.First[Id + 1]; ++S)
      SliceBase[S] = Bits + Layout.Slices[S].Bit;
    Bits += Layout.width(Id);
  }
  Rises.assign(Bits, 0);
  Falls.assign(Bits, 0);
  return Status::success();
}

void ToggleCoverageSink::cycle(const WaveFrame &F) {
  const uint32_t *First = Layout.First.data();
  for (uint32_t Id : F.Changed) {
    for (uint32_t S = First[Id]; S < First[Id + 1]; ++S) {
      uint64_t D = F.Prev[S] ^ F.Cur[S];
      if (!D)
        continue;
      uint64_t *Rise = Rises.data() + SliceBase[S];
      uint64_t *Fall = Falls.data() + SliceBase[S];
      for (uint64_t Up = D & F.Cur[S]; Up; Up &= Up - 1)
        ++Rise[std::countr_zero(Up)];
      for (uint64_t Down = D & F.Prev[S]; Down; Down &= Down - 1)
        ++Fall[std::countr_zero(Down)];
    }
  }
}

/// Bit indexes 0..Width-1 in the order their bin names sort: by decimal
/// text, where a shorter number sorts after its extensions ("10]" before
/// "1]", since ']' follows the digits).
static std::vector<uint32_t> binBitOrder(uint32_t Width) {
  std::vector<std::pair<std::string, uint32_t>> Text;
  Text.reserve(Width);
  for (uint32_t B = 0; B < Width; ++B)
    Text.emplace_back(std::to_string(B) + "]", B);
  std::sort(Text.begin(), Text.end());
  std::vector<uint32_t> Order;
  Order.reserve(Width);
  for (const auto &[Key, B] : Text)
    Order.push_back(B);
  return Order;
}

Status ToggleCoverageSink::finish(bool) {
  // Name each hit bin once and hand the whole space to the registry in a
  // single merge. Bins are generated in the map's key order — signals by
  // "name[", then bits by binBitOrder, rises before falls — so every
  // insertion is hinted at the end and costs no key comparisons beyond
  // the hint check. (A name containing '[' may break the order; the hint
  // then only costs speed, never correctness.)
  std::vector<uint32_t> ByName(Layout.signals());
  for (uint32_t Id = 0; Id < ByName.size(); ++Id)
    ByName[Id] = Id;
  std::sort(ByName.begin(), ByName.end(), [&](uint32_t A, uint32_t B) {
    std::string_view X = Sigs[A].Name, Y = Sigs[B].Name;
    size_t N = std::min(X.size(), Y.size());
    if (int C = X.substr(0, N).compare(Y.substr(0, N)))
      return C < 0;
    if (X.size() == Y.size())
      return A < B;
    // One name extends the other; the shorter continues with '['.
    auto U = [](char C) { return static_cast<unsigned char>(C); };
    return X.size() < Y.size() ? U('[') < U(Y[N]) : U(X[N]) < U('[');
  });

  std::map<uint32_t, std::vector<uint32_t>> Orders;
  obs::CoverageBins Bins;
  std::string Name;
  char Digits[16];
  for (uint32_t Id : ByName) {
    const uint32_t Lo = Layout.First[Id], Hi = Layout.First[Id + 1];
    if (Lo == Hi)
      continue;
    const uint32_t Width = Layout.width(Id);
    auto [It, Fresh] = Orders.try_emplace(Width);
    if (Fresh)
      It->second = binBitOrder(Width);
    const uint64_t Base = SliceBase[Lo];
    Name = Sigs[Id].Name;
    Name += '[';
    const size_t Keep = Name.size();
    for (uint32_t B : It->second) {
      for (bool Up : {true, false}) {
        uint64_t &Count = (Up ? Rises : Falls)[Base + B];
        if (!Count)
          continue;
        Name.resize(Keep);
        Name.append(Digits,
                    std::to_chars(Digits, Digits + sizeof(Digits), B).ptr);
        Name += Up ? "]:01" : "]:10";
        Bins.emplace_hint(Bins.end(), Name, Count);
        Count = 0;
      }
    }
  }
  if (!Bins.empty())
    Cov.mergeSpace("sim.toggle", std::move(Bins));
  return Status::success();
}

//===----------------------------------------------------------------------===//
// VcdWriter
//===----------------------------------------------------------------------===//

VcdWriter::VcdWriter(std::string Top) : Top(std::move(Top)) {}

std::string VcdWriter::idCode(unsigned Id) {
  // Base-94 over the printable ASCII range 33..126, least significant
  // digit first; one character covers the first 94 signals.
  std::string Code;
  do {
    Code += static_cast<char>(33 + Id % 94);
    Id /= 94;
  } while (Id > 0);
  return Code;
}

Status VcdWriter::begin(const std::vector<WaveSignal> &Signals,
                        const WaveLayout &L) {
  Sigs = Signals;
  Layout = L;
  Tails.clear();
  LineLen.clear();
  for (unsigned Id = 0; Id < Sigs.size(); ++Id) {
    std::string Tail = Sigs[Id].Width == 1 ? "" : " ";
    Tail += idCode(Id);
    Tail += '\n';
    LineLen.push_back(
        (Sigs[Id].Width == 1 ? 1 : 1 + Layout.width(Id)) + Tail.size());
    Tails.push_back(std::move(Tail));
  }
  Out += "$version reticle wave writer $end\n";
  Out += "$timescale 1ns $end\n";
  Out += "$scope module " + Top + " $end\n";

  // Group dotted names (`interp.y`) into sub-scopes on the first dot,
  // preserving first-appearance order; undotted names live in the top
  // scope and are emitted first.
  std::vector<std::string> ScopeOrder;
  auto ScopeOf = [](const std::string &Name) {
    size_t Dot = Name.find('.');
    return Dot == std::string::npos ? std::string() : Name.substr(0, Dot);
  };
  auto LeafOf = [](const std::string &Name) {
    size_t Dot = Name.find('.');
    return Dot == std::string::npos ? Name : Name.substr(Dot + 1);
  };
  for (const WaveSignal &S : Sigs) {
    std::string Scope = ScopeOf(S.Name);
    if (!Scope.empty() &&
        std::find(ScopeOrder.begin(), ScopeOrder.end(), Scope) ==
            ScopeOrder.end())
      ScopeOrder.push_back(Scope);
  }
  auto EmitVar = [&](unsigned Id) {
    const WaveSignal &S = Sigs[Id];
    std::string Leaf = LeafOf(S.Name);
    Out += "$var wire " + std::to_string(S.Width) + " " + idCode(Id) + " " +
           Leaf;
    if (S.Width > 1)
      Out += " [" + std::to_string(S.Width - 1) + ":0]";
    Out += " $end\n";
  };
  for (unsigned Id = 0; Id < Sigs.size(); ++Id)
    if (ScopeOf(Sigs[Id].Name).empty())
      EmitVar(Id);
  for (const std::string &Scope : ScopeOrder) {
    Out += "$scope module " + Scope + " $end\n";
    for (unsigned Id = 0; Id < Sigs.size(); ++Id)
      if (ScopeOf(Sigs[Id].Name) == Scope)
        EmitVar(Id);
    Out += "$upscope $end\n";
  }
  Out += "$upscope $end\n";
  Out += "$enddefinitions $end\n";

  // Everything is unknown until its first recorded value — registers show
  // as x before the first clock edge.
  Out += "$dumpvars\n";
  for (unsigned Id = 0; Id < Sigs.size(); ++Id) {
    if (Sigs[Id].Width == 1)
      Out += "x" + idCode(Id) + "\n";
    else
      Out += "bx " + idCode(Id) + "\n";
  }
  Out += "$end\n";
  return Status::success();
}

void VcdWriter::cycle(const WaveFrame &F) {
  if (!AnyCycle || F.Cycle != LastCycle) {
    Out += '#';
    Out += std::to_string(F.Cycle);
    Out += '\n';
    LastCycle = F.Cycle;
    AnyCycle = true;
  }
  // Size the changed lines up front and write them in place.
  size_t Need = 0;
  for (uint32_t Id : F.Changed)
    Need += LineLen[Id];
  size_t Pos = Out.size();
  Out.resize(Pos + Need);
  char *P = Out.data() + Pos;
  for (uint32_t Id : F.Changed) {
    if (Sigs[Id].Width == 1) {
      *P++ = F.Cur[Layout.First[Id]] ? '1' : '0';
    } else {
      *P++ = 'b';
      P = Layout.writeBits(P, F.Cur, Id);
    }
    std::memcpy(P, Tails[Id].data(), Tails[Id].size());
    P += Tails[Id].size();
  }
}

Status VcdWriter::finish(bool Aborted) {
  if (AnyCycle)
    Out += "#" + std::to_string(LastCycle + 1) + "\n";
  if (Aborted)
    Out += "$comment aborted $end\n";
  return Status::success();
}

//===----------------------------------------------------------------------===//
// WaveJsonWriter
//===----------------------------------------------------------------------===//

WaveJsonWriter::WaveJsonWriter(std::string Top, std::string Engine)
    : Top(std::move(Top)), Engine(std::move(Engine)) {}

static const char *kindName(WaveSignal::Kind K) {
  switch (K) {
  case WaveSignal::Kind::Input:
    return "input";
  case WaveSignal::Kind::Output:
    return "output";
  case WaveSignal::Kind::Internal:
    return "internal";
  }
  return "internal";
}

Status WaveJsonWriter::begin(const std::vector<WaveSignal> &Sigs,
                             const WaveLayout &L) {
  Layout = L;
  Keys.clear();
  for (const WaveSignal &S : Sigs)
    Keys.push_back(",\"signal\":" + obs::Json::quote(S.Name) +
                   ",\"value\":\"");
  obs::Json Header = obs::Json::object();
  Header.set("schema", "reticle-wave-v1");
  Header.set("top", Top);
  Header.set("engine", Engine);
  obs::Json List = obs::Json::array();
  for (const WaveSignal &S : Sigs) {
    obs::Json Sig = obs::Json::object();
    Sig.set("name", S.Name);
    Sig.set("width", S.Width);
    Sig.set("kind", kindName(S.SigKind));
    List.push(std::move(Sig));
  }
  Header.set("signals", std::move(List));
  Out += Header.str() + "\n";
  return Status::success();
}

void WaveJsonWriter::cycle(const WaveFrame &F) {
  Cycles = std::max(Cycles, F.Cycle + 1);
  // Records are emitted for every reported signal every cycle (no
  // suppression), so consumers can join on {cycle, signal} without
  // reconstructing state.
  const std::string Head = "{\"cycle\":" + std::to_string(F.Cycle);
  for (uint32_t Id = F.Begin; Id < F.End; ++Id) {
    Out += Head;
    Out += Keys[Id];
    Layout.appendBits(Out, F.Cur, Id);
    Out += "\"}\n";
  }
}

Status WaveJsonWriter::finish(bool Aborted) {
  obs::Json Footer = obs::Json::object();
  Footer.set("cycles", Cycles);
  Footer.set("aborted", Aborted);
  Out += Footer.str() + "\n";
  return Status::success();
}
