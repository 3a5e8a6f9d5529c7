#include "nn/model.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/error.hpp"

namespace mw::nn {

Model::Model(ModelSpec spec, std::vector<LayerPtr> layers)
    : spec_(std::move(spec)), desc_(derive_desc(spec_)), layers_(std::move(layers)) {
    MW_CHECK(!layers_.empty(), "Model needs at least one layer");
    validate_pipeline();
}

void Model::validate_pipeline() const {
    Shape shape = input_shape(1);
    for (const auto& layer : layers_) {
        shape = layer->output_shape(shape);  // throws on incompatibility
    }
    MW_CHECK(shape.rank() == 2 && shape[1] == desc_.output_dim,
             "model pipeline does not end in (batch, output_dim)");
}

ModelDesc Model::derive_desc(const ModelSpec& spec) {
    ModelDesc d;
    if (spec.is_cnn()) {
        const CnnSpec& cnn = spec.cnn();
        d.is_cnn = true;
        d.vgg_blocks = cnn.blocks.size();
        d.convs_per_block = cnn.blocks.empty() ? 0 : cnn.blocks.front().convs;
        d.filter_size = cnn.blocks.empty() ? 0 : cnn.blocks.front().filter_size;
        d.pool_size = cnn.blocks.empty() ? 0 : cnn.blocks.front().pool_size;
        d.input_elems = cnn.in_channels * cnn.in_h * cnn.in_w;
        d.output_dim = cnn.output_dim;
        d.depth = cnn.dense_hidden.size() + 1;
        std::size_t neurons = std::accumulate(cnn.dense_hidden.begin(), cnn.dense_hidden.end(),
                                              std::size_t{0});
        // Count one "node" per convolution output map pixel group: the
        // scheduler features only need a monotone size proxy, so we fold the
        // filter counts in.
        for (const auto& b : cnn.blocks) {
            neurons += b.filters * b.convs;
            d.depth += b.convs;
        }
        d.total_neurons = neurons + cnn.output_dim;
    } else {
        const FfnnSpec& f = spec.ffnn();
        d.is_cnn = false;
        d.depth = f.hidden.size() + 1;
        d.total_neurons = std::accumulate(f.hidden.begin(), f.hidden.end(), std::size_t{0}) +
                          f.output_dim;
        d.input_elems = f.input_dim;
        d.output_dim = f.output_dim;
    }
    return d;
}

Shape Model::input_shape(std::size_t batch) const {
    MW_CHECK(batch > 0, "batch must be positive");
    if (spec_.is_cnn()) {
        const CnnSpec& cnn = spec_.cnn();
        return Shape{batch, cnn.in_channels, cnn.in_h, cnn.in_w};
    }
    return Shape{batch, spec_.ffnn().input_dim};
}

std::size_t Model::bytes_per_sample() const { return desc_.input_elems * sizeof(float); }

Tensor Model::forward(const Tensor& input, ThreadPool* pool) const {
    MW_CHECK(input.shape() == input_shape(input.shape()[0]), "model input shape mismatch");
    const Tensor* current = &input;
    Tensor result;
    for (const auto& layer : layers_) {
        Tensor next(layer->output_shape(current->shape()));
        layer->forward(*current, next, pool);
        result = std::move(next);
        current = &result;
    }
    return result;
}

std::vector<Tensor> Model::forward_collect(const Tensor& input, ThreadPool* pool) const {
    MW_CHECK(input.shape() == input_shape(input.shape()[0]), "model input shape mismatch");
    std::vector<Tensor> acts;
    acts.reserve(layers_.size());
    const Tensor* current = &input;
    for (const auto& layer : layers_) {
        Tensor next(layer->output_shape(current->shape()));
        layer->forward(*current, next, pool);
        acts.push_back(std::move(next));
        current = &acts.back();
    }
    return acts;
}

std::vector<std::size_t> Model::classify(const Tensor& input, ThreadPool* pool) const {
    const Tensor out = forward(input, pool);
    const std::size_t batch = out.shape()[0];
    const std::size_t classes = out.shape()[1];
    std::vector<std::size_t> labels(batch);
    for (std::size_t b = 0; b < batch; ++b) {
        const float* row = out.data() + b * classes;
        labels[b] = static_cast<std::size_t>(
            std::distance(row, std::max_element(row, row + classes)));
    }
    return labels;
}

ModelCost Model::cost(std::size_t batch) const {
    ModelCost mc;
    Shape shape = input_shape(batch);
    for (const auto& layer : layers_) {
        const LayerCost lc = layer->cost(shape);
        mc.per_layer.push_back(lc);
        mc.total += lc;
        shape = layer->output_shape(shape);
    }
    return mc;
}

std::size_t Model::param_count() const {
    std::size_t n = 0;
    for (const auto& layer : layers_) {
        n += const_cast<Layer*>(layer.get())->param_count();
    }
    return n;
}

std::string Model::summary() const {
    std::ostringstream out;
    out << spec_.name << ": ";
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        if (i) out << " -> ";
        out << layers_[i]->describe();
    }
    out << " [" << param_count() << " params]";
    return out.str();
}

}  // namespace mw::nn
