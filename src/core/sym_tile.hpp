// Symmetric-pair tile fetches over triangular GA storage.
//
// Arrays whose dims (d0,d1) form a symmetric index pair store only the
// unique tiles (tile[d0] >= tile[d1]). A logical tile below the
// diagonal is served by the mirrored stored tile exactly as stored:
// its data lands with dims d0/d1 swapped, and the consumer reads it
// through swapped strides (the schedules hand them to
// blas::gemm_batched) instead of copying it into the requested
// orientation. nbget_sym_tile/finish_sym_tile split the fetch around a
// nonblocking GA get so the wire time can overlap compute.
#pragma once

#include <cstddef>
#include <span>

#include "ga/global_array.hpp"
#include "runtime/cluster.hpp"

/// \file
/// \brief Nonblocking symmetric-pair tile fetches over triangular GA
/// storage.

namespace fit::core {

/// An in-flight symmetric-tile fetch started by nbget_sym_tile. The
/// buffer it lands in must stay valid (and untouched) until
/// finish_sym_tile runs.
struct SymFetch {
  /// Handle of the underlying nonblocking GA get.
  ga::GlobalArray::NbHandle handle;
  /// True when the mirrored stored tile was fetched: `data` then holds
  /// the requested tile with dims d0/d1 swapped (the stored layout).
  bool mirrored = false;
  /// Where the tile lands: the `buf` nbget_sym_tile was given, or its
  /// `scratch` for a mirrored fetch (nullptr in Simulate mode).
  const double* data = nullptr;
};

/// Fetch tile `coord` of a four-index array whose dims (d0,d1) form a
/// triangular-stored symmetric pair. When coord[d0] >= coord[d1] the
/// stored tile is fetched into `buf`; otherwise the mirrored stored
/// tile (d0/d1 coordinates swapped) is fetched, untransposed, into
/// `scratch`. Returns the in-flight fetch descriptor.
SymFetch nbget_sym_tile(const ga::GlobalArray& arr, runtime::RankCtx& ctx,
                        std::span<const std::size_t> coord, int d0, int d1,
                        double* buf, double* scratch);

/// Complete a SymFetch: wait for its transfer. Idempotent like
/// wait_transfer.
void finish_sym_tile(runtime::RankCtx& ctx, const SymFetch& fetch);

}  // namespace fit::core
