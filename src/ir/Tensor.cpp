//===- ir/Tensor.cpp - Tensor shapes and dense tensors ----------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Tensor.h"

#include "support/StringUtil.h"

using namespace pf;

const char *pf::dataTypeName(DataType Type) {
  switch (Type) {
  case DataType::F32:
    return "f32";
  case DataType::F16:
    return "f16";
  }
  pf_unreachable("unknown data type");
}

std::string TensorShape::toString() const {
  std::string Out = "[";
  for (size_t I = 0; I < Dims.size(); ++I) {
    if (I != 0)
      Out += 'x';
    appendInt(Out, Dims[I]);
  }
  Out += ']';
  return Out;
}
