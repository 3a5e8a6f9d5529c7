#include "graph/dag.hpp"

#include <cmath>
#include <cstdint>

#include "common/error.hpp"

namespace mw::graph {

NodeId Graph::add_node(OpNode node) {
    const NodeId id = nodes_.size();
    for (const NodeId producer : node.inputs) {
        MW_CHECK(producer < id, "graph `" + name_ + "`: node `" + node.name +
                                    "` references producer " + std::to_string(producer) +
                                    " which does not exist yet");
    }
    MW_CHECK(node.out_bytes >= 0.0 && std::isfinite(node.out_bytes),
             "node `" + node.name + "`: out_bytes must be finite and non-negative");
    MW_CHECK(node.external_in_bytes >= 0.0 && std::isfinite(node.external_in_bytes),
             "node `" + node.name + "`: external_in_bytes must be finite and non-negative");
    nodes_.push_back(std::move(node));
    return id;
}

std::vector<std::vector<NodeId>> Graph::consumers() const {
    std::vector<std::vector<NodeId>> out(nodes_.size());
    for (NodeId v = 0; v < nodes_.size(); ++v) {
        for (const NodeId u : nodes_[v].inputs) out[u].push_back(v);
    }
    return out;
}

void Graph::validate() const {
    for (NodeId v = 0; v < nodes_.size(); ++v) {
        const OpNode& node = nodes_[v];
        for (const NodeId u : node.inputs) {
            if (u >= v) {
                throw InvalidArgument("graph `" + name_ + "`: node " + std::to_string(v) +
                                      " (`" + node.name + "`) has producer " +
                                      std::to_string(u) +
                                      " >= its own id; nodes must be topologically ordered");
            }
        }
        if (!(node.out_bytes >= 0.0) || !std::isfinite(node.out_bytes) ||
            !(node.external_in_bytes >= 0.0) || !std::isfinite(node.external_in_bytes)) {
            throw InvalidArgument("graph `" + name_ + "`: node " + std::to_string(v) + " (`" +
                                  node.name + "`) has a non-finite or negative footprint");
        }
    }
}

nn::LayerCost Graph::total_cost() const {
    nn::LayerCost total;
    for (const OpNode& node : nodes_) total += node.cost;
    return total;
}

double Graph::worst_case_intensity() const {
    double flops = 0.0;
    double bytes = 0.0;
    for (const OpNode& node : nodes_) {
        flops += node.cost.flops;
        bytes += node.out_bytes + node.external_in_bytes;
        for (const NodeId u : node.inputs) bytes += nodes_[u].out_bytes;
    }
    return bytes > 0.0 ? flops / bytes : 0.0;
}

std::uint64_t Graph::fingerprint() const {
    constexpr std::uint64_t kOffset = 1469598103934665603ULL;
    constexpr std::uint64_t kPrime = 1099511628211ULL;
    std::uint64_t h = kOffset;
    const auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xffU;
            h *= kPrime;
        }
    };
    const auto mix_double = [&mix](double v) {
        std::uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(v));
        __builtin_memcpy(&bits, &v, sizeof(bits));
        mix(bits);
    };
    for (const char c : name_) mix(static_cast<std::uint64_t>(c));
    mix(nodes_.size());
    for (const OpNode& node : nodes_) {
        mix_double(node.cost.flops);
        mix_double(node.cost.bytes_in);
        mix_double(node.cost.bytes_out);
        mix_double(node.cost.bytes_weights);
        mix_double(node.cost.work_items);
        mix(static_cast<std::uint64_t>(node.cost.kernel_launches));
        mix_double(node.out_bytes);
        mix_double(node.external_in_bytes);
        mix(node.inputs.size());
        for (const NodeId u : node.inputs) mix(u);
    }
    return h;
}

}  // namespace mw::graph
