#include "core/piecewise.h"

#include <limits>
#include <string>

namespace topkmon {

Result<std::shared_ptr<const PiecewiseFunction>> PiecewiseFunction::Create(
    std::vector<MonotonePiece> pieces) {
  if (pieces.empty()) {
    return Status::InvalidArgument(
        "piecewise function needs at least one monotone piece");
  }
  if (pieces.size() > 255) {
    return Status::InvalidArgument(
        "piecewise function is limited to 255 pieces, got " +
        std::to_string(pieces.size()));
  }
  int dim = 0;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    const MonotonePiece& piece = pieces[i];
    if (piece.function == nullptr) {
      return Status::InvalidArgument("piecewise piece " + std::to_string(i) +
                                     " has no scoring function");
    }
    if (dynamic_cast<const PiecewiseFunction*>(piece.function.get()) !=
        nullptr) {
      return Status::InvalidArgument(
          "piecewise piece " + std::to_string(i) +
          " is itself piecewise; flatten nested pieces instead");
    }
    if (i == 0) {
      dim = piece.function->dim();
    } else if (piece.function->dim() != dim) {
      return Status::InvalidArgument(
          "piecewise piece " + std::to_string(i) + " has dimensionality " +
          std::to_string(piece.function->dim()) + ", expected " +
          std::to_string(dim));
    }
    if (piece.domain.lo().dim() != dim) {
      return Status::InvalidArgument(
          "piecewise piece " + std::to_string(i) +
          " has a domain of mismatched dimensionality");
    }
  }
  return std::shared_ptr<const PiecewiseFunction>(
      new PiecewiseFunction(std::move(pieces), dim));
}

double PiecewiseFunction::Score(const Point& p) const {
  for (const MonotonePiece& piece : pieces_) {
    if (piece.domain.Contains(p)) return piece.function->Score(p);
  }
  return -std::numeric_limits<double>::infinity();
}

std::unique_ptr<ScoringFunction> PiecewiseFunction::Clone() const {
  std::vector<MonotonePiece> copy;
  copy.reserve(pieces_.size());
  for (const MonotonePiece& piece : pieces_) {
    copy.push_back(MonotonePiece{
        piece.domain,
        std::shared_ptr<const ScoringFunction>(piece.function->Clone())});
  }
  return std::unique_ptr<ScoringFunction>(
      new PiecewiseFunction(std::move(copy), dim_));
}

std::string PiecewiseFunction::ToString() const {
  std::string out = "piecewise[";
  for (std::size_t i = 0; i < pieces_.size(); ++i) {
    if (i > 0) out += "; ";
    out += pieces_[i].function->ToString();
  }
  out += "]";
  return out;
}

}  // namespace topkmon
