// Stochastic error model of the size-estimation methods (Section 5.1 and
// Appendix C). Every estimate carries a bias and a variance; estimates
// compose multiplicatively (X_AB = X_A * X_B * X_deduction) with the
// variance of the product computed via Goodman's formula. The default
// coefficients are the paper's Table 2/3 least-squares fits; they can be
// refit from this repo's own measurements (bench_table2/bench_table3).
#ifndef CAPD_ESTIMATOR_ERROR_MODEL_H_
#define CAPD_ESTIMATOR_ERROR_MODEL_H_

#include <vector>

#include "compress/compression_kind.h"

namespace capd {

// Bias/variance pair for a relative size estimate X = estimated/true, with
// E[X] = 1 + bias and Var[X] = variance.
struct ErrorStats {
  double bias = 0.0;
  double variance = 0.0;
};

// Product of independent multiplicative error terms (Goodman 1962),
// accumulated term by term without storage: with m_i = 1 + bias_i,
// E[prod X_i] = prod m_i and Var[prod X_i] = prod(v_i + m_i^2) - prod(m_i^2).
class ErrorProduct {
 public:
  void Add(const ErrorStats& term) {
    const double mean = 1.0 + term.bias;
    mean_ *= mean;
    second_moment_ *= term.variance + mean * mean;
    mean_sq_ *= mean * mean;
  }
  // The composed error; CHECK-fails on a NaN or infinite result.
  ErrorStats Result() const;

 private:
  double mean_ = 1.0;
  double second_moment_ = 1.0;
  double mean_sq_ = 1.0;
};

// ErrorProduct over `terms`, in order.
ErrorStats ComposeErrors(const std::vector<ErrorStats>& terms);

// P(1/(1+e) <= X <= 1+e) under a normal approximation.
double ErrorWithinProbability(const ErrorStats& err, double e);

class ErrorModel {
 public:
  // Defaults are THIS implementation's measured fits (regenerate with
  // bench_table2_error_fit / bench_table3_deduction_fit). The paper's SQL
  // Server fits, for reference: NS-stddev 0.0062, LD-bias -0.015 (they
  // underestimate; we overestimate, see error_model.cc), LD-stddev 0.018;
  // ColExt(NS) +0.01a/0.002a, ColExt(LD) -0.03a/0.01a.
  struct Coefficients {
    // SampleCF errors scale with -ln(f) (Table 2 form).
    double samplecf_ns_bias = 0.0;  // NS is unbiased [11]
    double samplecf_ns_stddev = 0.002;
    double samplecf_ld_bias = 0.036;
    double samplecf_ld_stddev = 0.015;
    // Deduction errors scale linearly with a = #children (Table 3 form).
    double colset_bias = 0.0;
    double colset_stddev = 0.0003;
    double colext_ns_bias = -0.02;
    double colext_ns_stddev = 0.002;
    double colext_ld_bias = 0.06;
    double colext_ld_stddev = 0.035;
  };

  ErrorModel() = default;
  explicit ErrorModel(Coefficients c) : c_(c) {}

  // SampleCF at sampling fraction f. ORD-IND kinds follow the NS family,
  // ORD-DEP kinds the LD family. f == 1 (full scan) has zero error.
  ErrorStats SampleCf(CompressionKind kind, double f) const;

  ErrorStats ColSet(CompressionKind kind) const;
  // Column extrapolation from `a` child indexes.
  ErrorStats ColExt(CompressionKind kind, int a) const;

  const Coefficients& coefficients() const { return c_; }

 private:
  Coefficients c_;
};

}  // namespace capd

#endif  // CAPD_ESTIMATOR_ERROR_MODEL_H_
