#include "core/sym_tile.hpp"

#include <array>
#include <utility>

namespace fit::core {

SymFetch nbget_sym_tile(const ga::GlobalArray& arr, runtime::RankCtx& ctx,
                        std::span<const std::size_t> coord, int d0, int d1,
                        double* buf, double* scratch) {
  SymFetch f;
  if (coord[d0] >= coord[d1]) {
    f.data = buf;
    f.handle = arr.nbget(ctx, coord, buf);
    return f;
  }
  FIT_REQUIRE(coord.size() == 4, "sym tiles have four indices");
  std::array<std::size_t, 4> stored = {coord[0], coord[1], coord[2],
                                       coord[3]};
  std::swap(stored[d0], stored[d1]);
  f.mirrored = true;
  f.data = scratch;
  f.handle = arr.nbget(ctx, stored, scratch);
  return f;
}

void finish_sym_tile(runtime::RankCtx& ctx, const SymFetch& fetch) {
  ctx.wait_transfer(fetch.handle);
}

}  // namespace fit::core
