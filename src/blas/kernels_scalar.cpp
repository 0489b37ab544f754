// IsaLevel::Scalar kernels: portable C++ loops, no vector types. This
// is the reference sequence every other level reproduces bit-for-bit,
// and the level FOURINDEX_CPU=scalar pins.
#define FIT_BLAS_ISA_TABLE_MAKER make_table_scalar
#define FIT_BLAS_ISA_LEVEL IsaLevel::Scalar
#define FIT_BLAS_KERNEL_VARIANT 0
#include "blas/kernels.inc"
