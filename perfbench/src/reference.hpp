// An independent reference forward pass: plain loops with double
// accumulation over the layer weights, written without any nn or tensor
// kernel, so a fault in the runtime's kernels cannot hide behind a matching
// fault here.
#pragma once

#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "nn/model.hpp"

namespace perfbench {

/// Outputs of one sample (`input` holds one row of the model's input).
std::vector<double> reference_forward(const mw::nn::Model& model, std::span<const float> input);

/// Largest allowed |runtime - reference| for one output value: the runtime
/// accumulates in float, the reference in double.
inline double output_tolerance(double reference) { return 1e-4 + 1e-3 * std::abs(reference); }

/// Empty when `got` matches the reference within tolerance, else a message.
std::string compare_outputs(std::span<const float> got, const std::vector<double>& expected);

}  // namespace perfbench
