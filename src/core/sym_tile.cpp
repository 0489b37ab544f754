#include "core/sym_tile.hpp"

#include <utility>

namespace fit::core {

SymFetch nbget_sym_tile(const ga::GlobalArray& arr, runtime::RankCtx& ctx,
                        ga::TileCoord coord, int d0, int d1, double* buf,
                        double* scratch) {
  SymFetch f;
  if (coord[d0] >= coord[d1]) {
    f.data = buf;
    f.handle = arr.nbget(ctx, coord, buf);
    return f;
  }
  std::swap(coord[d0], coord[d1]);
  f.mirrored = true;
  f.data = scratch;
  f.handle = arr.nbget(ctx, coord, scratch);
  return f;
}

void finish_sym_tile(runtime::RankCtx& ctx, const SymFetch& fetch) {
  ctx.wait_transfer(fetch.handle);
}

}  // namespace fit::core
