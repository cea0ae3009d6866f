#include "linalg/sparse.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace losstomo::linalg {

void intersect_sorted(std::span<const std::uint32_t> a,
                      std::span<const std::uint32_t> b,
                      std::vector<std::uint32_t>& out) {
  out.clear();
  std::size_t x = 0, y = 0;
  // Branch-free advance: which list steps is data-dependent and
  // unpredictable, so both cursors step by comparison results instead.
  while (x < a.size() && y < b.size()) {
    const std::uint32_t va = a[x];
    const std::uint32_t vb = b[y];
    if (va == vb) out.push_back(va);
    x += va <= vb ? 1 : 0;
    y += vb <= va ? 1 : 0;
  }
}

SparseBinaryMatrix::SparseBinaryMatrix(
    std::size_t cols, std::vector<std::vector<std::uint32_t>> rows) {
  append_rows(cols, std::move(rows));
}

void SparseBinaryMatrix::append_rows(
    std::size_t new_cols, std::vector<std::vector<std::uint32_t>> rows) {
  const std::size_t cols = cols_ + new_cols;
  for (auto& row : rows) {
    std::sort(row.begin(), row.end());
    if (std::adjacent_find(row.begin(), row.end()) != row.end()) {
      throw std::invalid_argument("duplicate column in sparse row");
    }
    if (!row.empty() && row.back() >= cols) {
      throw std::invalid_argument("column index out of range");
    }
  }
  cols_ = cols;
  rows_.insert(rows_.end(), std::make_move_iterator(rows.begin()),
               std::make_move_iterator(rows.end()));
}

std::size_t SparseBinaryMatrix::nnz() const {
  std::size_t n = 0;
  for (const auto& row : rows_) n += row.size();
  return n;
}

bool SparseBinaryMatrix::contains(std::size_t i, std::uint32_t c) const {
  const auto& row = rows_[i];
  return std::binary_search(row.begin(), row.end(), c);
}

Vector SparseBinaryMatrix::multiply(std::span<const double> x) const {
  if (x.size() != cols_) throw std::invalid_argument("mv size mismatch");
  Vector y(rows(), 0.0);
  for (std::size_t i = 0; i < rows(); ++i) {
    double acc = 0.0;
    for (const auto c : rows_[i]) acc += x[c];
    y[i] = acc;
  }
  return y;
}

Vector SparseBinaryMatrix::multiply_transpose(std::span<const double> y) const {
  if (y.size() != rows()) throw std::invalid_argument("mtv size mismatch");
  Vector x(cols_, 0.0);
  for (std::size_t i = 0; i < rows(); ++i) {
    const double yi = y[i];
    if (yi == 0.0) continue;
    for (const auto c : rows_[i]) x[c] += yi;
  }
  return x;
}

std::vector<std::vector<std::uint32_t>> SparseBinaryMatrix::column_lists()
    const {
  std::vector<std::vector<std::uint32_t>> cols(cols_);
  for (std::size_t i = 0; i < rows(); ++i) {
    for (const auto c : rows_[i]) {
      cols[c].push_back(static_cast<std::uint32_t>(i));
    }
  }
  return cols;
}

Matrix SparseBinaryMatrix::to_dense() const {
  Matrix m(rows(), cols_);
  for (std::size_t i = 0; i < rows(); ++i) {
    for (const auto c : rows_[i]) m(i, c) = 1.0;
  }
  return m;
}

CoTraversalGram::CoTraversalGram(const SparseBinaryMatrix& r) {
  const std::size_t n = r.cols();
  // Accumulate counts for ordered pairs (k <= l) in a flat hash map, then
  // mirror into a CSR layout with both triangles for fast row access.
  std::unordered_map<std::uint64_t, double> acc;
  acc.reserve(r.nnz() * 4);
  for (std::size_t i = 0; i < r.rows(); ++i) {
    const auto row = r.row(i);
    for (std::size_t a = 0; a < row.size(); ++a) {
      for (std::size_t b = a; b < row.size(); ++b) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(row[a]) << 32) | row[b];
        acc[key] += 1.0;
      }
    }
  }
  // Drain the hash map into key order once; every walk below then visits
  // (k, l) pairs k-major / l-minor regardless of hash layout.
  // lint: nondet-order-ok(drained into a vector and key-sorted before any
  // order-dependent use)
  std::vector<std::pair<std::uint64_t, double>> entries(acc.begin(), acc.end());
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // Count per-row nnz (both triangles).
  std::vector<std::size_t> rownnz(n, 0);
  for (const auto& [key, count] : entries) {
    const auto k = static_cast<std::uint32_t>(key >> 32);
    const auto l = static_cast<std::uint32_t>(key & 0xffffffffu);
    ++rownnz[k];
    if (l != k) ++rownnz[l];
  }
  offsets_.assign(n + 1, 0);
  for (std::size_t k = 0; k < n; ++k) offsets_[k + 1] = offsets_[k] + rownnz[k];
  cols_.resize(offsets_.back());
  values_.resize(offsets_.back());
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  // Key-ordered fill leaves every row column-sorted without a repair pass:
  // row r first receives its mirrored entries (k, r) in ascending k < r,
  // then its direct entries (r, m) in ascending m >= r.
  for (const auto& [key, count] : entries) {
    const auto k = static_cast<std::uint32_t>(key >> 32);
    const auto l = static_cast<std::uint32_t>(key & 0xffffffffu);
    cols_[cursor[k]] = l;
    values_[cursor[k]] = count;
    ++cursor[k];
    if (l != k) {
      cols_[cursor[l]] = k;
      values_[cursor[l]] = count;
      ++cursor[l];
    }
  }
}

double CoTraversalGram::at(std::size_t k, std::size_t l) const {
  const auto cols = row_cols(k);
  const auto it = std::lower_bound(cols.begin(), cols.end(),
                                   static_cast<std::uint32_t>(l));
  if (it == cols.end() || *it != l) return 0.0;
  return row_values(k)[static_cast<std::size_t>(it - cols.begin())];
}

std::span<const std::uint32_t> CoTraversalGram::row_cols(std::size_t k) const {
  return {cols_.data() + offsets_[k], offsets_[k + 1] - offsets_[k]};
}

std::span<const double> CoTraversalGram::row_values(std::size_t k) const {
  return {values_.data() + offsets_[k], offsets_[k + 1] - offsets_[k]};
}

Matrix CoTraversalGram::to_dense() const {
  Matrix m(dim(), dim());
  for (std::size_t k = 0; k < dim(); ++k) {
    const auto cols = row_cols(k);
    const auto vals = row_values(k);
    for (std::size_t i = 0; i < cols.size(); ++i) m(k, cols[i]) = vals[i];
  }
  return m;
}

}  // namespace losstomo::linalg
