// End-to-end benchmark binary: runs one workload as a closed loop of
// repetitions and prints one JSON object on stdout with the end-to-end
// metrics, the per-layer metrics, the correctness verdict and a host block.
//
//   pardon_e2e --workload=fisc_pacs --seed=1 --seconds=20 [--smoke]
//              [--traced=DIR]
//
// Every layer is measured from outside the library: timers around public
// calls (ScenarioData construction, Simulator::Run, FlServer::Run,
// RunClient), a behaviour-transparent Algorithm decorator (TimedAlgorithm),
// and probes at the workload's own shapes. Repetition i uses seed
// seed + 1000 * i; repetitions start until --seconds have elapsed and the
// workload's fixed minimum has run.
//
// --traced=DIR instead runs a fixed number of repetitions under an
// obs::ObsSession and writes DIR/trace.json and DIR/metrics.prom, which
// fold_trace.py turns into the trace-derived layer metrics.
//
// Correctness: every repetition's final parameters must be finite and its
// test accuracy above the workload's floor; repetition 0 also runs once
// untimed and undecorated, before the timed loop, and the two must match
// bitwise; fedavg_net first checks a 25-round socket session bitwise against
// Simulator::Run. bench/e2e/run.py builds and drives this binary;
// bench/e2e/README.md documents every metric.
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/fedavg.hpp"
#include "experiment.hpp"
#include "fl/comm.hpp"
#include "metrics/evaluation.hpp"
#include "net/fl_client.hpp"
#include "net/fl_server.hpp"
#include "obs/session.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "util/flags.hpp"
#include "util/logging.hpp"

namespace {

using namespace pardon;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Keeps the optimizer from discarding a probed call's result.
template <typename T>
void Keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// ---------------------------------------------------------------- decorator

// What TimedAlgorithm saw during one Simulator::Run or socket session, in
// seconds since the timeline was created. TrainClient runs concurrently on
// pool workers or client threads, hence the mutex.
class Timeline {
 public:
  struct Call {
    int round = 0;
    double start = 0.0;
    double end = 0.0;
    std::int64_t samples = 0;  // dataset size x local epochs
  };

  double Now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  void AddCall(const Call& call) {
    const std::lock_guard<std::mutex> lock(mutex_);
    calls_.push_back(call);
  }
  void AddSetup(double seconds) {
    const std::lock_guard<std::mutex> lock(mutex_);
    setup_seconds_ += seconds;
  }
  void AddAggregate(double seconds) {
    const std::lock_guard<std::mutex> lock(mutex_);
    aggregate_seconds_.push_back(seconds);
  }

  std::vector<Call> calls() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return calls_;
  }
  double setup_seconds() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return setup_seconds_;
  }
  std::vector<double> aggregate_seconds() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return aggregate_seconds_;
  }

 private:
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Call> calls_;
  double setup_seconds_ = 0.0;
  std::vector<double> aggregate_seconds_;
};

// Times Setup, TrainClient and Aggregate of the wrapped algorithm and
// forwards everything else unchanged: Name, the streaming capability (so
// FISC keeps its streaming fold) and the round state. TrainClient receives
// the caller's dataset reference untouched, so FISC's transfer-cache lookup,
// keyed on the dataset's address, still hits.
class TimedAlgorithm final : public fl::Algorithm {
 public:
  TimedAlgorithm(fl::Algorithm& inner, Timeline& timeline)
      : inner_(inner), timeline_(timeline) {}

  std::string Name() const override { return inner_.Name(); }

  void Setup(const fl::FlContext& context) override {
    epochs_ = context.config.local_epochs;
    const double start = timeline_.Now();
    inner_.Setup(context);
    timeline_.AddSetup(timeline_.Now() - start);
  }

  fl::ClientUpdate TrainClient(int client_id, const data::Dataset& data,
                               const nn::MlpClassifier& global_model,
                               int round, tensor::Pcg32& rng) override {
    const double start = timeline_.Now();
    fl::ClientUpdate update =
        inner_.TrainClient(client_id, data, global_model, round, rng);
    timeline_.AddCall({.round = round,
                       .start = start,
                       .end = timeline_.Now(),
                       .samples = data.size() * epochs_});
    return update;
  }

  std::vector<float> Aggregate(std::span<const float> global_params,
                               std::span<const fl::ClientUpdate> updates,
                               std::span<const int> client_ids,
                               int round) override {
    const double start = timeline_.Now();
    std::vector<float> params =
        inner_.Aggregate(global_params, updates, client_ids, round);
    timeline_.AddAggregate(timeline_.Now() - start);
    return params;
  }

  std::vector<std::uint8_t> SaveRoundState() const override {
    return inner_.SaveRoundState();
  }
  void LoadRoundState(std::span<const std::uint8_t> state) override {
    inner_.LoadRoundState(state);
  }
  bool SupportsStreamingAggregation() const override {
    return inner_.SupportsStreamingAggregation();
  }

 private:
  fl::Algorithm& inner_;
  Timeline& timeline_;
  int epochs_ = 1;
};

// ------------------------------------------------------------------ samples

struct Stats {
  // One entry per repetition.
  std::vector<double> setup_s, run_s, data_build_s, fl_setup_s, test_acc,
      session_setup_ms;
  // One entry per round or per call, over every repetition.
  std::vector<double> round_ms, round_overhead_ms, slowest_overhead_ms,
      train_client_ms, aggregate_ms;
  double busy_s = 0.0;      // summed TrainClient time
  double capacity_s = 0.0;  // summed workers x local-train span
  double round_s = 0.0;
  double samples = 0.0;
  std::int64_t train_calls = 0;
  double bytes = 0.0;
  std::int64_t net_rounds = 0;

  // Folds one run's timeline. A round lasts from the first TrainClient start
  // of round r to that of round r+1; the last one ends at `end`, when Run
  // returned. `workers` is how many TrainClient calls can run at once.
  void Fold(const Timeline& timeline, double end, std::size_t workers) {
    struct Round {
      double first_start = std::numeric_limits<double>::infinity();
      double last_end = 0.0;
      double busy = 0.0;
      double slowest = 0.0;
      std::size_t calls = 0;
    };
    std::map<int, Round> rounds;
    for (const Timeline::Call& call : timeline.calls()) {
      Round& round = rounds[call.round];
      const double duration = call.end - call.start;
      round.first_start = std::min(round.first_start, call.start);
      round.last_end = std::max(round.last_end, call.end);
      round.busy += duration;
      round.slowest = std::max(round.slowest, duration);
      ++round.calls;
      train_client_ms.push_back(duration * 1e3);
      samples += static_cast<double>(call.samples);
      ++train_calls;
    }
    for (auto it = rounds.begin(); it != rounds.end(); ++it) {
      const Round& round = it->second;
      const auto next = std::next(it);
      const double stop = next == rounds.end() ? end : next->second.first_start;
      const double length = stop - round.first_start;
      const double span = round.last_end - round.first_start;
      round_ms.push_back(length * 1e3);
      round_overhead_ms.push_back((length - span) * 1e3);
      slowest_overhead_ms.push_back((length - round.slowest) * 1e3);
      busy_s += round.busy;
      capacity_s +=
          static_cast<double>(std::min(workers, round.calls)) * span;
      round_s += length;
    }
    for (const double seconds : timeline.aggregate_seconds()) {
      aggregate_ms.push_back(seconds * 1e3);
    }
  }
};

// ---------------------------------------------------------------- workloads

struct Workload {
  std::string name;
  bench::Scenario scenario;  // seed is set per repetition
  std::vector<bench::MethodSpec> methods;
  bool net = false;  // FedAvg over TCP loopback instead of the simulator
  int traced_reps = 1;
  // Repetitions every untraced run completes, however long they take.
  // test_acc is the mean over their method runs, so it depends on the seed
  // alone, not on how many repetitions the host's speed allowed.
  int acc_reps = 1;
  // Lowest acceptable test accuracy of any single run: the lowest value
  // seen over a few hundred seeded runs, minus a margin (see README.md).
  double test_acc_floor = 0.0;
};

bench::Scenario PacsScenario() {
  bench::Scenario scenario;
  scenario.preset = data::MakePacsLike();
  scenario.train_domains = {1, 2};  // Art, Cartoon
  scenario.val_domains = {0};       // Photo
  scenario.test_domains = {3};      // Sketch
  return scenario;  // 1500/400 samples, N=100, K=20, R=50, lambda=0.1
}

bool MakeWorkload(const std::string& name, bool smoke, Workload& workload) {
  workload.name = name;
  if (name == "fisc_pacs") {
    workload.scenario = PacsScenario();
    workload.methods = {{"FISC", [] { return std::make_unique<core::Fisc>(); }}};
    workload.traced_reps = 3;
    workload.acc_reps = 40;
    workload.test_acc_floor = 0.20;
  } else if (name == "fisc_vgg_setup") {
    workload.scenario = PacsScenario();
    workload.scenario.rounds = 5;
    core::FiscOptions vgg;  // the Table 8 VGG-scale encoder
    vgg.encoder_feature_channels = 192;
    vgg.encoder_pool = 1;
    workload.methods = {
        {"FISC", [vgg] { return std::make_unique<core::Fisc>(vgg); }}};
    workload.traced_reps = 3;
    workload.acc_reps = 60;  // R=5 leaves accuracy widely spread over seeds
    workload.test_acc_floor = 0.05;
  } else if (name == "baselines_pacs") {
    workload.scenario = PacsScenario();
    workload.methods = bench::PaperMethods();
    workload.methods.pop_back();  // Table 1 order without "Ours"
    workload.traced_reps = 1;
    workload.acc_reps = 9;
    workload.test_acc_floor = 0.10;
  } else if (name == "fedavg_net") {
    // tools/net_demo's scenario, with a test split large enough to make
    // test_acc steady and sessions short enough that every run sets up
    // over ten of them.
    bench::Scenario& scenario = workload.scenario;
    scenario.preset = data::MakePacsLike();
    scenario.train_domains = {0, 1, 2};
    scenario.val_domains = {3};
    scenario.test_domains = {3};
    scenario.samples_per_train_domain = 120;
    scenario.samples_per_eval_domain = 400;
    scenario.total_clients = 3;
    scenario.participants = 3;
    scenario.rounds = 100;
    scenario.eval_every = 0;
    workload.net = true;
    workload.traced_reps = 1;
    workload.acc_reps = 25;
    workload.test_acc_floor = 0.40;
  } else {
    return false;
  }
  if (smoke) workload.scenario.rounds = std::min(workload.scenario.rounds, 5);
  return true;
}

// Final parameters and test accuracy of every method run in a repetition.
struct RepResult {
  std::vector<std::vector<float>> params;
  std::vector<double> test_acc;
};

bench::Scenario Seeded(const bench::Scenario& scenario, std::uint64_t seed) {
  bench::Scenario seeded = scenario;
  seeded.seed = seed;
  return seeded;
}

// One repetition of a simulator workload: build the data, then run every
// method on it. With `stats` the methods are decorated and timed; without,
// this is the plain replay.
RepResult RunSimulatorRep(const Workload& workload, std::uint64_t seed,
                          util::ThreadPool& pool, Stats* stats) {
  const Clock::time_point start = Clock::now();
  const bench::ScenarioData data(Seeded(workload.scenario, seed));
  const double build_s = SecondsSince(start);
  const std::vector<fl::EvalSet> evals = {{"val", &data.split().val},
                                          {"test", &data.split().test}};
  RepResult rep;
  double setup_s = 0.0;
  for (const bench::MethodSpec& method : workload.methods) {
    const std::unique_ptr<fl::Algorithm> algorithm = method.make();
    Timeline timeline;
    std::optional<TimedAlgorithm> timed;
    if (stats != nullptr) timed.emplace(*algorithm, timeline);
    const fl::SimulationResult result = data.simulator().Run(
        timed.has_value() ? static_cast<fl::Algorithm&>(*timed) : *algorithm,
        data.initial_model(), evals, &pool);
    if (stats != nullptr) {
      stats->Fold(timeline, timeline.Now(), pool.NumThreads());
      // Every method's run can start once the shared data and its own Setup
      // are done, so each run contributes one setup sample.
      stats->setup_s.push_back(build_s + timeline.setup_seconds());
      setup_s += timeline.setup_seconds();
    }
    rep.params.push_back(result.final_model.FlatParams());
    rep.test_acc.push_back(result.final_accuracy.at(1));
  }
  if (stats != nullptr) {
    stats->run_s.push_back(SecondsSince(start));
    stats->data_build_s.push_back(build_s);
    stats->fl_setup_s.push_back(setup_s);
  }
  return rep;
}

// Bounds every blocking socket wait, so a broken session fails the
// repetition instead of hanging the benchmark.
constexpr double kIoTimeoutSeconds = 30.0;

struct Session {
  std::vector<float> params;
  net::ServerResult server;
  double server_end = 0.0;  // timeline seconds when FlServer::Run returned
  double joined = 0.0;      // ... and when every client thread had joined
};

// One FedAvg session over TCP loopback: the server on this thread, each
// client on its own worker of `clients`. The workers outlive the session, so
// every session reuses the same threads (and their allocator arenas). Timing
// is relative to `timeline`, created just before Bind; with a null timeline
// the clients run undecorated.
Session RunSession(const bench::ScenarioData& data, util::ThreadPool& clients,
                   Timeline* timeline) {
  const bench::Scenario& scenario = data.scenario();
  if (clients.NumThreads() < static_cast<std::size_t>(scenario.total_clients)) {
    throw std::invalid_argument("RunSession: needs one thread per client");
  }
  const fl::FlConfig& config = data.simulator().config();
  net::Listener listener = net::Listener::Bind(
      net::Endpoint::Tcp("127.0.0.1", 0), kIoTimeoutSeconds);
  const net::Endpoint endpoint = listener.bound();

  std::vector<std::future<void>> running;
  for (int id = 0; id < scenario.total_clients; ++id) {
    running.push_back(clients.Submit([&, id] {
      baselines::FedAvg fedavg;
      std::optional<TimedAlgorithm> timed;
      if (timeline != nullptr) timed.emplace(fedavg, *timeline);
      fl::Algorithm& algorithm =
          timed.has_value() ? static_cast<fl::Algorithm&>(*timed) : fedavg;
      algorithm.Setup({.client_data = nullptr,
                       .initial_model = &data.initial_model(),
                       .config = config,
                       .pool = nullptr,
                       .data_provider = nullptr});
      net::ClientOptions options;
      options.server = endpoint;
      options.client_id = id;
      options.retry.io_timeout_seconds = kIoTimeoutSeconds;
      net::RunClient(options, algorithm,
                     data.simulator().client_data().at(
                         static_cast<std::size_t>(id)),
                     data.initial_model());
    }));
  }

  Session session;
  std::exception_ptr server_error;
  try {
    // A throw destroys the server and with it every connection, so the
    // clients see EOF and finish.
    net::FlServer server(std::move(listener),
                         {.total_clients = scenario.total_clients,
                          .participants_per_round = scenario.participants,
                          .rounds = scenario.rounds,
                          .seed = scenario.seed,
                          .compression = {}});
    session.server = server.Run(data.initial_model().FlatParams());
  } catch (...) {
    server_error = std::current_exception();
  }
  if (timeline != nullptr) session.server_end = timeline->Now();
  for (std::future<void>& client : running) client.wait();
  if (timeline != nullptr) session.joined = timeline->Now();
  if (server_error) std::rethrow_exception(server_error);
  for (std::future<void>& client : running) client.get();
  session.params = session.server.global_params;
  return session;
}

double TestAccuracy(const bench::ScenarioData& data,
                    const std::vector<float>& params) {
  nn::MlpClassifier model = data.initial_model().Clone();
  model.SetFlatParams(params);
  return metrics::Accuracy(model, data.split().test);
}

RepResult RunNetRep(const Workload& workload, std::uint64_t seed,
                    util::ThreadPool& pool, Stats* stats) {
  const Clock::time_point start = Clock::now();
  const bench::ScenarioData data(Seeded(workload.scenario, seed));
  const double build_s = SecondsSince(start);
  Timeline timeline;
  const Session session =
      RunSession(data, pool, stats ? &timeline : nullptr);
  if (stats != nullptr) {
    const std::vector<Timeline::Call> calls = timeline.calls();
    double first_train = session.server_end;
    for (const Timeline::Call& call : calls) {
      first_train = std::min(first_train, call.start);
    }
    stats->Fold(timeline, session.server_end,
                static_cast<std::size_t>(workload.scenario.total_clients));
    stats->setup_s.push_back(build_s + first_train);
    stats->run_s.push_back(session.joined);
    stats->data_build_s.push_back(build_s);
    stats->fl_setup_s.push_back(timeline.setup_seconds());
    stats->session_setup_ms.push_back(first_train * 1e3);
    stats->bytes += static_cast<double>(session.server.bytes_sent +
                                        session.server.bytes_received);
    stats->net_rounds += session.server.rounds_completed;
  }
  return {.params = {session.params},
          .test_acc = {TestAccuracy(data, session.params)}};
}

RepResult RunRep(const Workload& workload, std::uint64_t seed,
                 util::ThreadPool& pool, Stats* stats) {
  return workload.net ? RunNetRep(workload, seed, pool, stats)
                      : RunSimulatorRep(workload, seed, pool, stats);
}

bool Bitwise(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Empty when the repetition passes its checks, else what failed.
std::string CheckRep(const Workload& workload, const RepResult& rep) {
  for (std::size_t m = 0; m < rep.params.size(); ++m) {
    for (const float v : rep.params[m]) {
      if (!std::isfinite(v)) return "non-finite final parameters";
    }
    if (!(rep.test_acc[m] >= workload.test_acc_floor)) {
      return "test accuracy " + std::to_string(rep.test_acc[m]) +
             " below floor " + std::to_string(workload.test_acc_floor);
    }
  }
  return {};
}

// fedavg_net's pre-check: a 25-round socket session must equal
// Simulator::Run bitwise.
std::string CheckNetMatchesSimulator(const Workload& workload,
                                     std::uint64_t seed, bool smoke,
                                     util::ThreadPool& pool) {
  bench::Scenario scenario = Seeded(workload.scenario, seed);
  scenario.rounds = smoke ? scenario.rounds : 25;
  const bench::ScenarioData data(scenario);
  const Session session = RunSession(data, pool, nullptr);
  baselines::FedAvg fedavg;
  const fl::SimulationResult sim =
      data.simulator().Run(fedavg, data.initial_model(), {}, nullptr);
  if (!Bitwise(session.params, sim.final_model.FlatParams())) {
    return "socket session differs from Simulator::Run";
  }
  return {};
}

// ------------------------------------------------------------------- probes

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Median seconds of one call to `op`, over 15 timed batches of enough calls
// to last about a millisecond each.
template <typename Op>
double ProbeSeconds(Op&& op) {
  op();  // warm caches and lazily built state
  const Clock::time_point once = Clock::now();
  op();
  const double single = std::max(SecondsSince(once), 1e-9);
  const int calls = std::max(1, static_cast<int>(1e-3 / single));
  std::vector<double> samples;
  for (int batch = 0; batch < 15; ++batch) {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < calls; ++i) op();
    samples.push_back(SecondsSince(start) / calls);
  }
  return Median(std::move(samples));
}

tensor::Tensor FirstRows(const data::Dataset& dataset, std::int64_t rows) {
  std::vector<int> indices(
      static_cast<std::size_t>(std::min(rows, dataset.size())));
  for (std::size_t i = 0; i < indices.size(); ++i) {
    indices[i] = static_cast<int>(i);
  }
  return dataset.images().Gather(indices);
}

// GFLOP/s of the model's Linear-layer GEMMs at `rows` rows: the forward
// product alone, or forward plus both backward products.
double GemmGflops(const nn::MlpClassifier::Config& config, std::int64_t rows,
                  bool backward) {
  std::vector<std::int64_t> widths = {config.input_dim};
  widths.insert(widths.end(), config.hidden.begin(), config.hidden.end());
  widths.push_back(config.embed_dim);
  widths.push_back(config.num_classes);
  tensor::Pcg32 rng(17);
  struct Shapes {
    tensor::Tensor x, w, g;
  };
  std::vector<Shapes> layers;
  double flops = 0.0;
  for (std::size_t i = 0; i + 1 < widths.size(); ++i) {
    const std::int64_t in = widths[i];
    const std::int64_t out = widths[i + 1];
    layers.push_back({tensor::Tensor::Uniform({rows, in}, -1.f, 1.f, rng),
                      tensor::Tensor::Uniform({in, out}, -1.f, 1.f, rng),
                      tensor::Tensor::Uniform({rows, out}, -1.f, 1.f, rng)});
    flops += (backward ? 3.0 : 1.0) * 2.0 * static_cast<double>(rows * in * out);
  }
  const double seconds = ProbeSeconds([&] {
    for (const Shapes& layer : layers) {
      Keep(tensor::MatMul(layer.x, layer.w));
      if (backward) {
        Keep(tensor::MatMulTransA(layer.x, layer.g));
        Keep(tensor::MatMulTransB(layer.g, layer.w));
      }
    }
  });
  return flops / seconds / 1e9;
}

// Single-layer costs at the workload's shapes: model plumbing, a training
// step's forward and backward at batch 32, inference on the test split, the
// GEMMs underneath, and the update wire codec at the model's size.
std::vector<Metric> Probes(const bench::ScenarioData& data) {
  const nn::MlpClassifier& initial = data.initial_model();
  const data::Dataset& test = data.split().test;
  const std::int64_t batch = data.scenario().preset.batch_size;
  const tensor::Tensor x = FirstRows(data.split().train, batch);
  const tensor::Tensor eval_x = FirstRows(test, 512);
  tensor::Pcg32 rng(23);
  nn::MlpClassifier model = initial.Clone();

  const auto forward = [&](nn::Sequential::Trace& feature_trace,
                           nn::Sequential::Trace& head_trace) {
    return model.Logits(model.Embed(x, &feature_trace, true, &rng),
                        &head_trace, true, &rng);
  };
  nn::Sequential::Trace features, head;
  const tensor::Tensor logits = forward(features, head);
  const tensor::Tensor grad =
      tensor::Tensor::Full(logits.shape(), 1.0f / static_cast<float>(batch));

  fl::ClientUpdate update;
  update.params = initial.FlatParams();
  update.num_samples = batch;
  const std::vector<std::uint8_t> wire = fl::EncodeClientUpdate(update);

  return {
      {"nn.clone_us", ProbeSeconds([&] { Keep(initial.Clone()); }) * 1e6,
       "us"},
      {"nn.forward_us", ProbeSeconds([&] {
         nn::Sequential::Trace f, h;
         Keep(forward(f, h));
       }) * 1e6,
       "us"},
      {"nn.backward_us", ProbeSeconds([&] {
         Keep(model.BackwardFeatures(model.BackwardHead(grad, head),
                                     features));
       }) * 1e6,
       "us"},
      {"nn.infer_us", ProbeSeconds([&] { Keep(initial.InferLogits(eval_x)); }) *
                          1e6,
       "us"},
      {"nn.flat_params_us",
       ProbeSeconds([&] { Keep(initial.FlatParams()); }) * 1e6, "us"},
      {"tensor.gemm_batch_gflops", GemmGflops(initial.config(), batch, true),
       "GFLOP/s"},
      {"tensor.gemm_eval_gflops",
       GemmGflops(initial.config(), eval_x.dim(0), false), "GFLOP/s"},
      {"metrics.accuracy_ms",
       ProbeSeconds([&] { Keep(metrics::Accuracy(initial, test)); }) * 1e3,
       "ms"},
      {"fl.wire_encode_us",
       ProbeSeconds([&] { Keep(fl::EncodeClientUpdate(update)); }) * 1e6,
       "us"},
      {"fl.wire_decode_us",
       ProbeSeconds([&] { Keep(fl::DecodeClientUpdate(wire)); }) * 1e6, "us"},
  };
}

double GemmCounter(const obs::MetricsRegistry& registry,
                   std::string_view name) {
  return registry.CounterValue(
      name, "backend=\"" +
                std::string(tensor::ToString(tensor::ActiveGemmBackend())) +
                "\"");
}

// GEMM work of one TrainClient call, counted by the library's own
// pardon_tensor_gemm_* counters and averaged over a round's worth of clients
// (the first K) and every method. Each client trains once from the initial
// model, serially, so no other work is counted.
std::vector<Metric> GemmPerClientRound(const Workload& workload,
                                       const bench::ScenarioData& data,
                                       util::ThreadPool& pool) {
  const std::vector<data::Dataset>& clients = data.simulator().client_data();
  std::vector<bench::MethodSpec> methods = workload.methods;
  if (workload.net) {
    methods = {{"FedAvg", [] { return std::make_unique<baselines::FedAvg>(); }}};
  }
  obs::MetricsRegistry registry;
  double calls = 0.0;
  for (const bench::MethodSpec& method : methods) {
    const std::unique_ptr<fl::Algorithm> algorithm = method.make();
    algorithm->Setup({.client_data = &clients,
                      .initial_model = &data.initial_model(),
                      .config = data.simulator().config(),
                      .pool = &pool,
                      .data_provider = nullptr});
    const auto round_size = static_cast<std::size_t>(data.scenario().participants);
    obs::SetActiveMetrics(&registry);
    for (std::size_t c = 0; c < round_size; ++c) {
      tensor::Pcg32 rng(data.scenario().seed, c);
      Keep(algorithm->TrainClient(static_cast<int>(c), clients.at(c),
                                  data.initial_model(), 1, rng));
    }
    obs::SetActiveMetrics(nullptr);
    calls += static_cast<double>(round_size);
  }
  return {
      {"tensor.gemm_calls_per_client_round",
       GemmCounter(registry, "pardon_tensor_gemm_calls_total") / calls,
       "count"},
      {"tensor.gemm_mflop_per_client_round",
       GemmCounter(registry, "pardon_tensor_gemm_flops_total") / calls / 1e6,
       "count"},
  };
}

// ------------------------------------------------------------------- output

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const std::size_t first = model.find_first_not_of(' ');
  const std::size_t last = model.find_last_not_of(' ');
  return first == std::string::npos ? "unknown"
                                    : model.substr(first, last - first + 1);
#else
  return "unknown";
#endif
}

std::string Quote(std::string_view text) {
  return "\"" + obs::JsonEscape(text) + "\"";
}

std::string HostJson() {
  const util::ThreadPool* gemm_pool = tensor::GemmThreadPool();
  const std::size_t gemm_threads =
      gemm_pool == nullptr ? 1 : gemm_pool->NumThreads();
  return "{\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"cpu_model\":" + Quote(CpuModel()) + ",\"avx2_fma\":" +
         (tensor::GemmSimdSupported() ? "true" : "false") +
         ",\"gemm_backend\":" +
         Quote(tensor::ToString(tensor::ActiveGemmBackend())) +
         ",\"gemm_threads\":" + std::to_string(gemm_threads) +
         ",\"build_type\":" + Quote(PARDON_E2E_BUILD_TYPE) +
         ",\"compiler\":" + Quote(__VERSION__) + "}";
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Crc32Hex(const std::vector<std::vector<float>>& params) {
  std::vector<std::uint8_t> bytes;
  for (const std::vector<float>& p : params) {
    const auto* raw = reinterpret_cast<const std::uint8_t*>(p.data());
    bytes.insert(bytes.end(), raw, raw + p.size() * sizeof(float));
  }
  char hex[16];
  std::snprintf(hex, sizeof(hex), "%08x", fl::Crc32(bytes));
  return hex;
}

// Metrics measured by the decorator and the timers, over every repetition.
std::vector<Metric> TimedMetrics(const Workload& workload, const Stats& s) {
  const double reps = std::max<double>(1.0, static_cast<double>(s.run_s.size()));
  const bool net = workload.net;
  return {
      {"setup_s", Median(s.setup_s), "s"},
      {"run_s", Median(s.run_s), "s"},
      {"round_ms_p50", Quantile(s.round_ms, 0.50), "ms"},
      {"round_ms_p95", Quantile(s.round_ms, 0.95), "ms"},
      {"train_samples_per_s", s.round_s > 0.0 ? s.samples / s.round_s : 0.0,
       "samples/s"},
      {"test_acc", Mean(s.test_acc), "fraction"},
      {"fl.train_client_ms_p50", Quantile(s.train_client_ms, 0.50), "ms"},
      {"fl.train_client_ms_p95", Quantile(s.train_client_ms, 0.95), "ms"},
      {"fl.train_client_calls", static_cast<double>(s.train_calls) / reps,
       "count"},
      {"fl.pool_idle_frac",
       s.capacity_s > 0.0 ? 1.0 - s.busy_s / s.capacity_s : 0.0, "fraction"},
      {"fl.round_overhead_ms_p50", Quantile(s.round_overhead_ms, 0.50), "ms"},
      {"fl.aggregate_ms_p50", Quantile(s.aggregate_ms, 0.50), "ms"},
      {"fl.setup_s", Median(s.fl_setup_s), "s"},
      {"data.build_s", Median(s.data_build_s), "s"},
      {"net.session_setup_ms", Median(s.session_setup_ms), "ms"},
      {"net.round_overhead_ms_p50",
       net ? Quantile(s.slowest_overhead_ms, 0.50) : 0.0, "ms"},
      {"net.round_overhead_ms_p95",
       net ? Quantile(s.slowest_overhead_ms, 0.95) : 0.0, "ms"},
      {"net.bytes_per_round",
       s.net_rounds > 0 ? s.bytes / static_cast<double>(s.net_rounds) : 0.0,
       "count"},
      {"net.goodput_MBps",
       net && s.round_s > 0.0 ? s.bytes / s.round_s / 1e6 : 0.0, "MB/s"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  util::SetLogLevel(util::LogLevel::kWarn);
  const bool smoke = flags.GetBool("smoke", false);
  const std::string traced_dir = flags.GetString("traced", "");
  const bool traced = !traced_dir.empty();
  const double seconds = flags.GetDouble("seconds", 20.0);
  std::uint64_t base_seed = 0;
  Workload workload;
  try {
    base_seed = std::stoull(flags.GetString("seed", "1"));
  } catch (const std::exception&) {
    std::fprintf(stderr, "pardon_e2e: --seed must be a non-negative integer\n");
    return 2;
  }
  if (!MakeWorkload(flags.GetString("workload", ""), smoke, workload)) {
    std::fprintf(stderr,
                 "pardon_e2e: --workload must be one of fisc_pacs, "
                 "fisc_vgg_setup, baselines_pacs, fedavg_net\n");
    return 2;
  }

  // The simulator trains clients on up to four workers; fedavg_net runs one
  // socket client per worker.
  util::ThreadPool pool(
      workload.net ? static_cast<std::size_t>(workload.scenario.total_clients)
                   : std::min<std::size_t>(
                         4, std::max(1u, std::thread::hardware_concurrency())));
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;
  std::vector<std::vector<float>> rep0_params;
  const auto fail = [&](int rep, const std::string& what) {
    ++failed;
    failures.push_back("rep " + std::to_string(rep) + ": " + what);
  };

  try {
    std::string precheck;
    if (workload.net && !traced) {
      try {
        precheck = CheckNetMatchesSimulator(workload, base_seed, smoke, pool);
      } catch (const std::exception& error) {
        precheck = error.what();
      }
    }
    // Repetition 0, untimed and undecorated, runs before the timed loop: it
    // warms the caches, the allocator and the threads, and the timed
    // repetition 0 must match it bitwise, which proves the decorator
    // transparent and the run deterministic.
    std::optional<RepResult> reference;
    if (!traced) {
      try {
        reference = RunRep(workload, base_seed, pool, nullptr);
      } catch (const std::exception& error) {
        if (precheck.empty()) precheck = std::string("replay: ") + error.what();
      }
    }

    std::optional<obs::ObsSession> obs_session;
    if (traced) {
      obs_session.emplace(obs::ObsOptions{
          .trace = true,
          .metrics = true,
          .manifest = false,
          .trace_path = traced_dir + "/trace.json",
          .metrics_path = traced_dir + "/metrics.prom",
          .metrics_jsonl_path = "",
          .manifest_path = ""});
    }
    const int max_reps = smoke ? 1 : traced ? workload.traced_reps
                                            : std::numeric_limits<int>::max();
    const int min_reps =
        traced ? max_reps : std::min(max_reps, workload.acc_reps);
    Stats stats;
    const Clock::time_point start = Clock::now();
    for (int rep = 0; rep < max_reps; ++rep) {
      if (rep >= min_reps && SecondsSince(start) >= seconds) break;
      ++attempted;
      const std::uint64_t seed = base_seed + 1000 * static_cast<std::uint64_t>(rep);
      try {
        const RepResult result = RunRep(workload, seed, pool, &stats);
        if (rep < min_reps) {
          stats.test_acc.insert(stats.test_acc.end(), result.test_acc.begin(),
                                result.test_acc.end());
        }
        std::string problem = CheckRep(workload, result);
        if (rep == 0) {
          rep0_params = result.params;
          if (problem.empty()) problem = precheck;
          if (problem.empty() && reference.has_value()) {
            bool same = reference->params.size() == result.params.size();
            for (std::size_t m = 0; same && m < result.params.size(); ++m) {
              same = Bitwise(reference->params[m], result.params[m]);
            }
            if (!same) problem = "undecorated replay differs bitwise";
          }
        }
        if (!problem.empty()) fail(rep, problem);
      } catch (const std::exception& error) {
        fail(rep, error.what());
      }
    }
    if (obs_session.has_value()) obs_session->Finish();

    std::vector<Metric> metrics;
    if (traced) {
      metrics = GemmPerClientRound(
          workload, bench::ScenarioData(Seeded(workload.scenario, base_seed)),
          pool);
      metrics.push_back({"traced.run_s", Median(stats.run_s), "s"});
      metrics.push_back({"traced.rounds",
                         static_cast<double>(stats.round_ms.size()), "count"});
    } else {
      metrics = TimedMetrics(workload, stats);
      metrics.push_back({"peak_rss_mb", PeakRssMiB(), "MiB"});
      const std::vector<Metric> probes = Probes(
          bench::ScenarioData(Seeded(workload.scenario, base_seed)));
      metrics.insert(metrics.end(), probes.begin(), probes.end());
    }

    std::string json = "{\"workload\":" + Quote(workload.name) +
                       ",\"seed\":" + std::to_string(base_seed) +
                       ",\"traced\":" + (traced ? "true" : "false") +
                       ",\"correct\":" + (failed == 0 ? "true" : "false") +
                       ",\"attempted\":" + std::to_string(attempted) +
                       ",\"failed\":" + std::to_string(failed) +
                       ",\"crc0\":" + Quote(Crc32Hex(rep0_params)) +
                       ",\"round_samples\":" +
                       std::to_string(stats.round_ms.size()) +
                       ",\"pool_threads\":" +
                       std::to_string(pool.NumThreads()) +
                       ",\"host\":" + HostJson() +
                       ",\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      json += (i ? "," : "") + Quote(failures[i]);
    }
    json += "],\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      json += (i ? "," : "") + Quote(metrics[i].name) + ":{\"value\":" +
              obs::JsonNumber(metrics[i].value) +
              ",\"unit\":" + Quote(metrics[i].unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "pardon_e2e: %s\n", error.what());
    return 1;
  }
  return failed == 0 ? 0 : 1;
}
