#include "estimator/error_model.h"

#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"

namespace capd {

ErrorStats ErrorProduct::Result() const {
  ErrorStats out;
  out.bias = mean_ - 1.0;
  out.variance = second_moment_ - mean_sq_;
  CAPD_CHECK(!std::isnan(out.bias) && !std::isnan(out.variance) &&
             !std::isinf(out.bias))
      << "bad error composition: bias=" << out.bias
      << " var=" << out.variance;
  return out;
}

ErrorStats ComposeErrors(const std::vector<ErrorStats>& terms) {
  ErrorProduct product;
  for (const ErrorStats& t : terms) product.Add(t);
  return product.Result();
}

double ErrorWithinProbability(const ErrorStats& err, double e) {
  CAPD_CHECK(!std::isnan(err.bias) && !std::isnan(err.variance))
      << "NaN composed error: bias=" << err.bias << " var=" << err.variance
      << " e=" << e;
  return ProbWithinTolerance(err.bias, err.variance, e);
}

ErrorStats ErrorModel::SampleCf(CompressionKind kind, double f) const {
  CAPD_CHECK_GT(f, 0.0);
  CAPD_CHECK_LE(f, 1.0);
  ErrorStats out;
  const double lnf = -std::log(f);  // >= 0, zero at f=1
  if (IsOrderDependent(kind)) {
    // Note: the paper's SQL Server implementation underestimates (negative
    // bias); ours overestimates — sample pages hold the same row count but
    // sparser duplicates, so the local dictionary helps less than on the
    // full index. Same |bias| ~ c*ln(f) shape, opposite sign (our Fig. 9).
    out.bias = c_.samplecf_ld_bias * lnf;
    const double sd = c_.samplecf_ld_stddev * lnf;
    out.variance = sd * sd;
  } else {
    out.bias = c_.samplecf_ns_bias * lnf;
    const double sd = c_.samplecf_ns_stddev * lnf;
    out.variance = sd * sd;
  }
  return out;
}

ErrorStats ErrorModel::ColSet(CompressionKind kind) const {
  CAPD_CHECK(!IsOrderDependent(kind))
      << "ColSet deduction applies to order-independent compression only";
  ErrorStats out;
  out.bias = c_.colset_bias;
  out.variance = c_.colset_stddev * c_.colset_stddev;
  return out;
}

ErrorStats ErrorModel::ColExt(CompressionKind kind, int a) const {
  CAPD_CHECK_GE(a, 1);
  ErrorStats out;
  const double da = static_cast<double>(a);
  if (IsOrderDependent(kind)) {
    out.bias = c_.colext_ld_bias * da;
    const double sd = c_.colext_ld_stddev * da;
    out.variance = sd * sd;
  } else {
    out.bias = c_.colext_ns_bias * da;
    const double sd = c_.colext_ns_stddev * da;
    out.variance = sd * sd;
  }
  return out;
}

}  // namespace capd
