/**
 * @file
 * Canonical dimension names for linear layouts.
 *
 * The paper labels the input space of a distributed layout as
 * Reg x Thr x Wrp and the input of a memory layout as Off; output spaces
 * are the logical-tensor dimensions. We follow Triton upstream and call
 * the hardware dims "register", "lane", "warp", "block", and "offset",
 * and the logical dims "dim0", "dim1", ... where dim0 listed *first*
 * means it is the fastest-moving (least-significant-bit) dimension of the
 * flattened space.
 */

#ifndef LL_LAYOUT_DIMS_H
#define LL_LAYOUT_DIMS_H

#include <string>

#include "layout/linear_layout.h"

namespace ll {
namespace dims {

inline const std::string kReg = "register";
inline const std::string kLane = "lane";
inline const std::string kWarp = "warp";
inline const std::string kBlock = "block";
inline const std::string kOffset = "offset";

/** The canonical name of logical tensor dimension i. */
inline std::string
out(int i)
{
    return "dim" + std::to_string(i);
}

/** Registers per thread of `l` (1 when it has no register dim). */
inline int32_t
regCount(const LinearLayout &l)
{
    return l.hasInDim(kReg) ? l.getInDimSize(kReg) : 1;
}

/** Warps of `l` (1 when it has no warp dim). */
inline int32_t
warpCount(const LinearLayout &l)
{
    return l.hasInDim(kWarp) ? l.getInDimSize(kWarp) : 1;
}

/** Bases of in-dim `inDim` of `l` that move along out-dim `axisDim`. */
inline int
axisBits(const LinearLayout &l, const std::string &inDim,
         const std::string &axisDim)
{
    int bits = 0;
    if (l.hasInDim(inDim)) {
        for (int b = 0; b < l.getInDimSizeLog2(inDim); ++b)
            bits += l.getBasis(inDim, b, axisDim) != 0;
    }
    return bits;
}

} // namespace dims
} // namespace ll

#endif // LL_LAYOUT_DIMS_H
