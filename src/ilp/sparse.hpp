// Sparse linear algebra for the revised simplex.
//
// Two pieces, both deliberately small and fully deterministic:
//
//   CscMatrix            compressed-sparse-column storage of the standard-
//                        form constraint matrix. Placement MILPs are very
//                        sparse (each placement column touches a handful of
//                        rows), so per-iteration work is priced against
//                        nnz instead of a dense tableau's m·n.
//
//   BasisFactorization   factors of the current basis B with an eta file
//                        (product-form updates) layered on top. Simplex
//                        bases of placement LPs are dominated by slack and
//                        near-unit columns, so refactorization first peels
//                        the cascade of column singletons into a permuted
//                        triangular factor (pure bookkeeping, no fill) and
//                        only LU-factorizes the small dense "bump" that
//                        remains — FTRAN/BTRAN then cost O(nnz + bump²)
//                        instead of O(m²). Each pivot appends one sparse
//                        eta vector on top; periodic refactorization
//                        (eta-file length cap) bounds both the per-solve
//                        cost and the accumulated rounding error;
//                        residual_inf() measures ‖B·B⁻¹−I‖∞ so tests can
//                        assert the factorization never degrades.
#pragma once

#include <cstdint>
#include <vector>

namespace p4all::ilp {

/// Compressed-sparse-column matrix (double entries, int indices).
/// Immutable after construction; rows within a column are sorted.
class CscMatrix {
public:
    struct Triplet {
        int row = 0;
        int col = 0;
        double value = 0.0;
    };

    CscMatrix() = default;

    /// Builds from (row, col, value) triplets. Duplicate (row, col) entries
    /// are summed; exact zeros (including sums that cancel) are dropped.
    [[nodiscard]] static CscMatrix from_triplets(int rows, int cols,
                                                 std::vector<Triplet> triplets);

    /// Builds from a dense row-major matrix, dropping exact zeros.
    [[nodiscard]] static CscMatrix from_dense(int rows, int cols,
                                              const std::vector<double>& row_major);

    /// Dense row-major rendering (tests: dense ↔ sparse round trips).
    [[nodiscard]] std::vector<double> to_dense() const;

    [[nodiscard]] int rows() const noexcept { return rows_; }
    [[nodiscard]] int cols() const noexcept { return cols_; }
    [[nodiscard]] std::int64_t nonzeros() const noexcept {
        return static_cast<std::int64_t>(values_.size());
    }

    /// Column j's entries live at indices [col_begin(j), col_end(j)).
    [[nodiscard]] std::size_t col_begin(int j) const {
        return col_ptr_[static_cast<std::size_t>(j)];
    }
    [[nodiscard]] std::size_t col_end(int j) const {
        return col_ptr_[static_cast<std::size_t>(j) + 1];
    }
    [[nodiscard]] int entry_row(std::size_t k) const { return row_idx_[k]; }
    [[nodiscard]] double entry_value(std::size_t k) const { return values_[k]; }

    /// Sparse dot of column j with a dense vector: Σ_i A_ij · y_i.
    [[nodiscard]] double dot_col(int j, const std::vector<double>& y) const;

    /// dense += scale · A_j (scatter; `dense` must have size rows()).
    void axpy_col(int j, double scale, std::vector<double>& dense) const;

    /// Writes column j into `dense` (zeroing it first; size rows()).
    void scatter_col(int j, std::vector<double>& dense) const;

private:
    int rows_ = 0;
    int cols_ = 0;
    std::vector<std::size_t> col_ptr_;  // cols+1 entries
    std::vector<int> row_idx_;
    std::vector<double> values_;
};

/// Factors of the simplex basis plus a product-form eta file.
///
/// refactorize() peels the cascade of column singletons: any basis column
/// with exactly one entry in a still-active row pivots there, deactivating
/// the row and often exposing new singletons (slack, artificial, and
/// near-unit placement columns all peel this way). Under the induced
/// permutation the peeled block is upper triangular with no entries in the
/// remaining rows, so B factors as [U11 B12; 0 B22] and only the dense
/// "bump" B22 needs an LU with partial pivoting — on placement bases the
/// bump is typically a few percent of m.
/// update() appends one eta per pivot: with w = B⁻¹a for the entering
/// column a replacing basis position p, B' = B·E where E is the identity
/// with column p replaced by w, so B'⁻¹ = E⁻¹B⁻¹ and E⁻¹ is stored as the
/// sparse eta vector η (η_p = 1/w_p, η_i = −w_i/w_p).
class BasisFactorization {
public:
    struct Options {
        /// Eta vectors accumulated before needs_refactorization() trips.
        int max_etas = 64;
        /// |w_p| below this refuses the update (caller refactorizes).
        double pivot_tol = 1e-11;
    };

    BasisFactorization() = default;
    explicit BasisFactorization(Options options) : options_(options) {}

    /// Factorizes B = A[:, basis]. Returns false when the basis is singular
    /// (to working precision); the factorization is then unusable.
    [[nodiscard]] bool refactorize(const CscMatrix& A, const std::vector<int>& basis);

    /// Solves B·x = b in place (b must have size m).
    void ftran(std::vector<double>& x) const;

    /// Solves Bᵀ·y = c in place (c must have size m).
    void btran(std::vector<double>& y) const;

    /// Applies the rank-one basis change at position `pos`, where `w` is the
    /// FTRAN image B⁻¹a of the incoming column. Returns false when the
    /// pivot element |w[pos]| is below pivot_tol (no state change).
    [[nodiscard]] bool update(const std::vector<double>& w, int pos);

    [[nodiscard]] int eta_count() const noexcept { return static_cast<int>(etas_.size()); }
    [[nodiscard]] bool needs_refactorization() const noexcept {
        return eta_count() >= options_.max_etas;
    }
    [[nodiscard]] bool factorized() const noexcept { return m_ > 0 || factorized_empty_; }

    /// ‖B·B⁻¹ − I‖∞ witnessed column-by-column: max_j ‖FTRAN(A_bj) − e_j‖∞
    /// over the basis columns. The property/fuzz suite bounds this after
    /// randomized pivot sequences.
    [[nodiscard]] double residual_inf(const CscMatrix& A, const std::vector<int>& basis) const;

private:
    Options options_;
    int m_ = 0;
    bool factorized_empty_ = false;

    /// One peeled pivot: basis position `pos` pivots row `row`; `above`
    /// holds the column's remaining entries, all in rows peeled strictly
    /// earlier (the column had exactly one active entry when peeled, and
    /// bump rows stay active throughout, so none land in the bump).
    struct PeelPivot {
        int row;
        int pos;
        double pivot;
        std::vector<std::pair<int, double>> above;  // (earlier-peeled row, value)
    };
    std::vector<PeelPivot> peel_;          // in peel order
    std::vector<int> bump_rows_;           // row ids of the bump, ascending
    std::vector<int> bump_pos_;            // basis positions of the bump, ascending
    std::vector<int> bump_row_slot_;       // row id → index in bump_rows_, or -1
    std::vector<std::vector<std::pair<int, double>>> bump_in_peel_;  // per bump col:
                                           // entries landing in peeled rows (B12)
    std::vector<double> bump_lu_;          // s×s row-major, L unit-lower + U packed
    std::vector<int> bump_perm_;           // partial-pivoting row order (bump-local)

    struct Eta {
        int pos;
        double pivot_inv;                            // η_pos
        std::vector<std::pair<int, double>> terms;   // (i, η_i), i ≠ pos
    };
    std::vector<Eta> etas_;
};

}  // namespace p4all::ilp
