#include "testbed.hpp"

#include <algorithm>
#include <cstring>

#include "common/rng.hpp"
#include "ml/random_forest.hpp"
#include "nn/model_builder.hpp"
#include "nn/zoo.hpp"
#include "sched/oracle.hpp"
#include "sched/scheduler_dataset.hpp"

namespace perfbench {

using namespace mw;

namespace {

constexpr std::uint64_t kWeightSeed = 7;
constexpr std::size_t kPoolRows = 512;

}  // namespace

void InputPool::fill(Tensor& out, std::size_t first, std::size_t n) const {
    for (std::size_t i = 0; i < n; ++i) {
        std::memcpy(out.data() + i * elems, row(first + i), elems * sizeof(float));
    }
}

Testbed::Testbed(std::uint64_t seed)
    : registry(device::DeviceRegistry::standard_testbed({.noise_sigma = kNoiseSigma})),
      twin(device::DeviceRegistry::standard_testbed({.noise_sigma = 0.0})),
      oracle_(std::make_unique<sched::Oracle>(twin)) {
    // Measurement campaign over the five paper models on the paper's
    // sample-size grid, on a throwaway copy of the testbed (the campaign loads
    // its own instance of every architecture onto the devices it measures).
    auto campaign = device::DeviceRegistry::standard_testbed({.noise_sigma = kNoiseSigma});
    dataset_ = sched::build_scheduler_dataset(campaign, nn::zoo::paper_models(), {});

    for (nn::ModelSpec& spec : nn::zoo::paper_models()) {
        const std::string name = spec.name;
        auto model = std::make_shared<nn::Model>(nn::build_model(std::move(spec), kWeightSeed));
        dispatcher.register_model(model);
        twin.load_model_everywhere(model);
        models[name] = model;
        model_names.push_back(name);
    }
    dispatcher.deploy_all();
    scheduler = make_scheduler();

    Rng rng(seed ^ 0x1a9e7b00c0ffeeULL);
    for (const std::string& name : model_names) {
        InputPool pool;
        pool.rows = kPoolRows;
        pool.elems = models[name]->desc().input_elems;
        pool.data.resize(pool.rows * pool.elems);
        for (float& x : pool.data) x = static_cast<float>(rng.uniform());
        inputs[name] = std::move(pool);
    }
    reset_timelines(seed);
}

std::unique_ptr<sched::OnlineScheduler> Testbed::make_scheduler() {
    sched::DevicePredictor predictor(
        std::make_unique<ml::RandomForest>(ml::ForestConfig{.n_estimators = 50, .seed = 1}),
        dataset_.device_names);
    predictor.fit(dataset_);
    // Exploration off: every decision is the trained predictor's, so the
    // modeled figures are a function of the seed alone.
    return std::make_unique<sched::OnlineScheduler>(
        dispatcher, std::move(predictor), dataset_,
        sched::SchedulerConfig{.explore_probability = 0.0});
}

void Testbed::reset_timelines(std::uint64_t noise_seed) {
    std::uint64_t s = noise_seed * 0x9e3779b97f4a7c15ULL + 11;
    for (device::Device* dev : registry.devices()) {
        dev->reset_timeline();
        dev->set_noise(kNoiseSigma, s++);
    }
}

double Testbed::isolated_latency_s(const std::string& device, const std::string& model,
                                   std::size_t samples, bool warm) {
    const std::string key = device + "|" + model + "|" + std::to_string(samples) + "|" +
                            (warm ? "w" : "i");
    const auto it = latency_cache_.find(key);
    if (it != latency_cache_.end()) return it->second;
    const auto decision = oracle_->decide(
        model, samples, warm ? sched::GpuState::kWarm : sched::GpuState::kIdle,
        sched::Policy::kMinLatency);
    for (const device::Measurement& m : decision.all) {
        latency_cache_[m.device_name + "|" + model + "|" + std::to_string(samples) + "|" +
                       (warm ? "w" : "i")] = m.latency_s();
    }
    return latency_cache_.at(key);
}

double Testbed::best_isolated_latency_s(const std::string& model, std::size_t samples) {
    double best = 1e300;
    for (const std::string& dev : twin.names()) {
        best = std::min(best, isolated_latency_s(dev, model, samples, true));
    }
    return best;
}

double Testbed::fleet_capacity_rps(const std::string& model, std::size_t samples,
                                   std::size_t max_requests) {
    double total = 0.0;
    for (const std::string& dev : twin.names()) {
        double best = 0.0;
        for (std::size_t b = 1; b <= max_requests; ++b) {
            best = std::max(best, static_cast<double>(b) /
                                      isolated_latency_s(dev, model, b * samples, true));
        }
        total += best;
    }
    return total;
}

const std::string& Testbed::oracle_device(const std::string& model, std::size_t samples,
                                          bool gpu_warm, sched::Policy policy) {
    const std::string key = model + "|" + std::to_string(samples) + "|" +
                            (gpu_warm ? "w" : "i") + "|" +
                            std::to_string(static_cast<int>(policy));
    auto it = oracle_cache_.find(key);
    if (it == oracle_cache_.end()) {
        const auto decision = oracle_->decide(
            model, samples, gpu_warm ? sched::GpuState::kWarm : sched::GpuState::kIdle, policy);
        it = oracle_cache_.emplace(key, decision.best_device).first;
    }
    return it->second;
}

std::string kind_label(const std::string& device_name) {
    if (device_name == "i7-8700") return "cpu";
    if (device_name == "uhd630") return "igpu";
    if (device_name == "gtx1080ti") return "dgpu";
    return "other";
}

}  // namespace perfbench
