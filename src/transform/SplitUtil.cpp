//===- transform/SplitUtil.cpp - H-dimension splitting helpers --*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "transform/SplitUtil.h"

#include <algorithm>

#include "ir/ShapeInference.h"
#include "support/Format.h"

using namespace pf;

ConvInputReq pf::convInputRowsFor(const Conv2dAttrs &A, int64_t InH,
                                  int64_t OutBegin, int64_t OutEnd) {
  PF_ASSERT(OutBegin < OutEnd, "empty conv output row range");
  ConvInputReq R;
  // Output row o reads padded-input rows [o*s, o*s + KH); padded-input row
  // p corresponds to real input row p - PadTop.
  const int64_t WantBegin = OutBegin * A.StrideH - A.PadTop;
  const int64_t WantEnd = (OutEnd - 1) * A.StrideH + A.KernelH - A.PadTop;
  R.InBegin = std::max<int64_t>(0, WantBegin);
  R.InEnd = std::min(InH, WantEnd);
  R.PadTop = R.InBegin - WantBegin; // >= 0: rows that fall in the padding.
  R.PadBottom = WantEnd - R.InEnd;
  // Reachable only for degenerate attributes (pad >= kernel), which the
  // verifier rejects as verify.illegal-attrs: with pad < kernel every
  // window overlaps at least one real row, so every part does too.
  PF_ASSERT(R.InBegin < R.InEnd,
            "conv part reads no real input rows (pad >= kernel?)");
  return R;
}

bool pf::checkPieces(const Graph &G, const std::vector<HPiece> &Pieces,
                     DiagnosticEngine &DE) {
  const size_t Before = DE.errorCount();
  if (Pieces.empty()) {
    DE.error(DiagCode::VerifyPieceGap, "pieces",
             "piecewise tensor has no pieces");
    return false;
  }
  int64_t Expect = 0;
  for (size_t I = 0; I < Pieces.size(); ++I) {
    const HPiece &P = Pieces[I];
    // Built only for a diagnostic: a clean piece list costs no strings.
    auto Ctx = [I] { return formatStr("piece #%zu", I); };
    if (P.End <= P.Begin) {
      DE.error(DiagCode::VerifyPieceGap, Ctx(),
               formatStr("piece range [%lld,%lld) is empty or negative",
                         static_cast<long long>(P.Begin),
                         static_cast<long long>(P.End)));
    } else if (P.Begin < Expect) {
      DE.error(DiagCode::VerifyPieceOverlap, Ctx(),
               formatStr("piece begins at row %lld but rows up to %lld are "
                         "already covered",
                         static_cast<long long>(P.Begin),
                         static_cast<long long>(Expect)));
    } else if (P.Begin > Expect) {
      DE.error(DiagCode::VerifyPieceGap, Ctx(),
               formatStr("piece begins at row %lld, leaving rows [%lld,%lld) "
                         "uncovered",
                         static_cast<long long>(P.Begin),
                         static_cast<long long>(Expect),
                         static_cast<long long>(P.Begin)));
    }
    Expect = std::max(Expect, P.End);

    if (P.Id < 0 || static_cast<size_t>(P.Id) >= G.numValues()) {
      DE.error(DiagCode::VerifyDanglingValue, Ctx(),
               formatStr("references value id %d, but the graph has %zu "
                         "values",
                         P.Id, G.numValues()));
      continue;
    }
    const TensorShape &S = G.value(P.Id).Shape;
    if (S.rank() != 4)
      DE.error(DiagCode::VerifyStaleShape, Ctx(),
               formatStr("value '%s' is not rank-4 NHWC",
                         G.value(P.Id).Name.c_str()));
    else if (P.End > P.Begin && S.dim(1) != P.End - P.Begin)
      DE.error(DiagCode::VerifyStaleShape, Ctx(),
               formatStr("covers %lld rows but value '%s' has height %lld",
                         static_cast<long long>(P.End - P.Begin),
                         G.value(P.Id).Name.c_str(),
                         static_cast<long long>(S.dim(1))));
  }
  return DE.errorCount() == Before;
}

PiecewiseTensor::PiecewiseTensor(Graph &G, ValueId Whole) : G(&G) {
  const TensorShape &S = G.value(Whole).Shape;
  PF_ASSERT(S.rank() == 4, "piecewise tensors are rank-4 NHWC");
  Pieces.push_back(HPiece{0, S.dim(1), Whole});
}

PiecewiseTensor::PiecewiseTensor(Graph &G, std::vector<HPiece> P)
    : G(&G), Pieces(std::move(P)) {
  // A split pass handing over broken pieces is a compiler bug: stop with
  // the full coded evidence rather than the first violated assert.
  DiagnosticEngine DE;
  if (!checkPieces(G, Pieces, DE))
    fatal("piecewise tensor invariants violated:\n" + DE.render());
}

int64_t PiecewiseTensor::height() const { return Pieces.back().End; }

ValueId PiecewiseTensor::range(int64_t Begin, int64_t End, Device Dev) {
  PF_ASSERT(Begin >= 0 && End <= height() && Begin < End,
            "piecewise range out of bounds");

  // Collect the (sub-)pieces overlapping the range.
  std::vector<ValueId> Parts;
  for (const HPiece &Piece : Pieces) {
    if (Piece.End <= Begin || Piece.Begin >= End)
      continue;
    const int64_t Lo = std::max(Begin, Piece.Begin) - Piece.Begin;
    const int64_t Hi = std::min(End, Piece.End) - Piece.Begin;
    if (Lo == 0 && Hi == Piece.End - Piece.Begin) {
      Parts.push_back(Piece.Id);
      continue;
    }
    // Sub-range of this piece: emit a Slice.
    SliceAttrs A;
    A.Axis = 1;
    A.Begin = Lo;
    A.End = Hi;
    const std::string Name =
        formatStr("%s.hslice%d", G->value(Piece.Id).Name.c_str(), Counter++);
    ValueId Out = G->addValue(Name + ".out", TensorShape{});
    NodeId N = G->addNode(OpKind::Slice, Name, A, {Piece.Id}, {Out});
    G->node(N).Dev = Dev;
    auto Err = inferNodeShapes(*G, N);
    PF_ASSERT(!Err, "slice shape inference failed");
    Parts.push_back(Out);
  }
  PF_ASSERT(!Parts.empty(), "range covered by no pieces");
  if (Parts.size() == 1)
    return Parts.front();

  // Concatenate along H.
  ConcatAttrs A;
  A.Axis = 1;
  const std::string Name = formatStr("hconcat%d", Counter++);
  ValueId Out = G->addValue(Name + ".out", TensorShape{});
  NodeId N = G->addNode(OpKind::Concat, Name, A, Parts, {Out});
  G->node(N).Dev = Dev;
  auto Err = inferNodeShapes(*G, N);
  PF_ASSERT(!Err, "concat shape inference failed");
  return Out;
}

std::vector<std::pair<int64_t, int64_t>> pf::splitRange(int64_t Total,
                                                        int64_t Parts) {
  PF_ASSERT(Parts >= 1 && Total >= Parts, "cannot split range");
  std::vector<std::pair<int64_t, int64_t>> Out;
  int64_t Begin = 0;
  for (int64_t P = 0; P < Parts; ++P) {
    const int64_t End = Total * (P + 1) / Parts;
    Out.emplace_back(Begin, End);
    Begin = End;
  }
  return Out;
}
