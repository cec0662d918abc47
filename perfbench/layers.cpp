// Traced in-process layer run.
//
//   perfbench_probe trace --workload W --spans OUT.json [--budget S]
//       [--cases FILE]                           serve_frame
//       [--campaign D:HARDEN:TRIALS,... --seed N --threads T]   campaign
//       [--cases FILE]   campaign: gate-level forwards for hw::tile_forward
//
// serve_frame: every case is replayed through the library's public
// functions -- server::decode_request, the steps of execute_request
// (dsp::read_pgm, dsp::level_shift_*, hw::tile_forward / tile_inverse,
// dsp::write_pgm, codec::encode_image) and server::encode_response -- each
// wrapped in a span, and also through the opaque server::execute_request
// without spans.  Both answers must equal the golden payload.  Gate-level
// cases first build their artifacts on a cleared core::ArtifactCache, one
// timed call per artifact kind, and the first one is also timed under each
// execution tier.  The campaign workload streams its gate-level forward
// cases through hw::tile_forward alone (same builds and tier ablation),
// times its own artifact builds, and runs explore::run_campaign with the
// cone restriction on and off.
//
// Spans (name, start, end, parent, request id) stay in memory and are
// written at exit as Chrome trace-event JSON.  Prints one JSON object:
// the per-layer metrics, self time per span name, per-shape medians and
// the correctness checks.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>

#include "codec/codec.hpp"
#include "core/artifact_cache.hpp"
#include "core/registry.hpp"
#include "dsp/dwt2d.hpp"
#include "dsp/image.hpp"
#include "explore/resilience.hpp"
#include "hw/designs.hpp"
#include "hw/tile_scheduler.hpp"
#include "probe.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"

namespace perfbench {
namespace {

using dwt::core::ArtifactCache;
using dwt::core::CacheStats;
using dwt::rtl::HardeningStyle;
using dwt::rtl::compiled::ExecTier;
using dwt::rtl::compiled::OptLevel;

class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    int request = -1;
  };

  /// RAII span; nests under the innermost open span.
  class Scope {
   public:
    Scope(Tracer& t, std::string name, int request) : t_(t) {
      index_ = static_cast<int>(t_.spans_.size());
      Span s;
      s.name = std::move(name);
      s.parent = t_.open_.empty() ? -1 : t_.open_.back();
      s.request = request;
      t_.open_.push_back(index_);
      s.start_ns = t_.now_ns();
      t_.spans_.push_back(std::move(s));
    }
    ~Scope() {
      t_.spans_[static_cast<std::size_t>(index_)].end_ns = t_.now_ns();
      t_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    [[nodiscard]] int index() const { return index_; }

   private:
    Tracer& t_;
    int index_ = 0;
  };

  /// Runs `f` inside a span and returns the span's duration in ms.
  double timed(const std::string& name, int request,
               const std::function<void()>& f) {
    int index = 0;
    {
      Scope s(*this, name, request);
      index = s.index();
      f();
    }
    return duration_ms(index);
  }

  [[nodiscard]] double duration_ms(int index) const {
    const Span& s = spans_[static_cast<std::size_t>(index)];
    return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }

  /// Self time per span name: duration minus what its children cover.
  [[nodiscard]] std::map<std::string, double> self_ms() const {
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[s.name] += static_cast<double>(s.end_ns - s.start_ns - child[i]) / 1e6;
    }
    return out;
  }

  void write_chrome(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << static_cast<double>(s.start_ns) / 1e3
          << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
          << ", \"request\": " << s.request << "}}";
    }
    out << "\n], \"displayTimeUnit\": \"ms\"}\n";
    if (!out) throw std::runtime_error("cannot write spans to " + path);
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t total_builds(const CacheStats& s) {
  return s.design_builds + s.tape_builds + s.mapped_builds + s.cone_builds +
         s.native_builds;
}

std::uint64_t total_hits(const CacheStats& s) {
  return s.design_hits + s.tape_hits + s.mapped_hits + s.cone_hits +
         s.native_hits;
}

dwt::hw::DesignId design_id(int design) {
  return static_cast<dwt::hw::DesignId>(design - 1);
}

dwt::server::Request make_request(const Case& c) {
  dwt::server::Request req;
  req.op = c.op == "tile"      ? dwt::server::Op::kTileRoundTrip
           : c.op == "forward" ? dwt::server::Op::kForward
                               : dwt::server::Op::kCompress;
  req.format = dwt::server::PayloadFormat::kPgm;
  req.design = design_id(c.design);
  req.octaves = c.octaves;
  req.backend = c.backend;
  req.payload = c.pgm;
  return req;
}

/// The tile options the daemon's workers use for a request.
dwt::hw::TileOptions served_tile_options(const dwt::server::Request& req) {
  dwt::hw::TileOptions opt;
  opt.method = dwt::dsp::Method::kLiftingFixed;
  opt.octaves = req.octaves;
  opt.tile_w = opt.tile_h = req.tile != 0 ? req.tile : 64;
  opt.threads = 1;
  opt.backend = req.backend.empty() ? nullptr
                                    : dwt::core::find_backend(req.backend);
  opt.design = req.design;
  opt.opt_level = req.opt_level;
  opt.exec_tier = ExecTier::kAuto;
  return opt;
}

void add_tile_stats(const dwt::hw::TileStats& s, std::map<std::string, double>* m) {
  (*m)["hw.core_cycles"] += static_cast<double>(s.total_cycles);
  (*m)["hw.line_passes"] += static_cast<double>(s.line_passes);
  (*m)["hw.tiles"] += static_cast<double>(s.tiles);
}

/// execute_request's steps, one span each.  Stage times land in `stages`
/// and simulated counts in `counts` (when non-null).
dwt::server::Response traced_execute(Tracer& tr, int id,
                                     const dwt::server::Request& req,
                                     std::map<std::string, double>* stages,
                                     std::map<std::string, double>* counts) {
  Tracer::Scope scope(tr, "server.execute_request", id);
  dwt::server::Response resp;
  resp.op = req.op;
  dwt::dsp::Image img;
  (*stages)["dsp.read_pgm_ms"] += tr.timed("dsp.read_pgm", id, [&] {
    std::istringstream in(std::string(req.payload.begin(), req.payload.end()));
    img = dwt::dsp::read_pgm(in, "request payload");
  });
  resp.width = static_cast<std::uint16_t>(img.width());
  resp.height = static_cast<std::uint16_t>(img.height());
  if (req.op == dwt::server::Op::kCompress) {
    (*stages)["codec.encode_ms"] += tr.timed("codec.encode_image", id, [&] {
      dwt::codec::EncodeOptions opt;
      opt.octaves = req.octaves;
      for (double& v : img.data()) v = std::round(v);
      resp.payload = dwt::codec::encode_image(img, opt).bytes;
    });
    return resp;
  }
  const dwt::hw::TileOptions opt = served_tile_options(req);
  (*stages)["dsp.level_shift_ms"] += tr.timed("dsp.level_shift", id, [&] {
    dwt::dsp::level_shift_forward(img);
    dwt::dsp::round_coefficients(img);
  });
  dwt::hw::TileStats fwd;
  (*stages)["hw.tile_forward_ms"] += tr.timed(
      "hw.tile_forward", id, [&] { fwd = dwt::hw::tile_forward(img, opt); });
  if (counts != nullptr) add_tile_stats(fwd, counts);
  if (opt.backend != nullptr && fwd.total_cycles > 0) {
    (*stages)["gate_forward_ms"] += (*stages)["hw.tile_forward_ms"];
  }
  if (req.op == dwt::server::Op::kForward) {
    tr.timed("server.pack_plane", id, [&] { resp.payload = pack_i32(img); });
    return resp;
  }
  dwt::hw::TileOptions inv = opt;
  if (inv.backend != nullptr && !inv.backend->caps().inverse_2d) {
    inv.backend = nullptr;
  }
  dwt::hw::TileStats back;
  (*stages)["hw.tile_inverse_ms"] += tr.timed(
      "hw.tile_inverse", id, [&] { back = dwt::hw::tile_inverse(img, inv); });
  if (counts != nullptr) (*counts)["hw.tiles"] += static_cast<double>(back.tiles);
  (*stages)["dsp.level_shift_ms"] += tr.timed(
      "dsp.level_shift", id, [&] { dwt::dsp::level_shift_inverse(img); });
  (*stages)["dsp.write_pgm_ms"] += tr.timed("dsp.write_pgm", id, [&] {
    std::ostringstream out;
    dwt::dsp::write_pgm(img, out, "response");
    const std::string bytes = out.str();
    resp.payload.assign(bytes.begin(), bytes.end());
  });
  return resp;
}

struct Output {
  std::map<std::string, double> metrics;
  std::map<std::string, std::map<std::string, double>> shapes;
  std::map<std::string, double> checks;
};

/// Runs each (metric, build) pair in a span and adds its time to the metric.
void timed_builds(Tracer& tr,
                  const std::vector<std::pair<std::string, std::function<void()>>>& builds,
                  Output* out) {
  for (const auto& [metric, build] : builds) {
    // Span "core.design_build" for metric "core.design_build_ms".
    out->metrics[metric] += tr.timed(metric.substr(0, metric.size() - 3), -1, build);
  }
}

/// Clears the cache, then times the artifact builds of every gate-level
/// configuration the cases use.
void build_gate_artifacts(Tracer& tr, const std::vector<Case>& cases, Output* out) {
  ArtifactCache& cache = ArtifactCache::instance();
  cache.clear();
  std::vector<std::pair<std::string, std::function<void()>>> builds;
  std::vector<std::string> seen;
  for (const Case& c : cases) {
    if (c.backend != "rtl-compiled") continue;
    const std::string key = std::to_string(c.design) + "/" + std::to_string(c.octaves);
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
    seen.push_back(key);
    const dwt::hw::DatapathConfig cfg =
        dwt::hw::design_config(design_id(c.design), c.octaves);
    builds.emplace_back("core.design_build_ms", [&cache, cfg] { (void)cache.design(cfg); });
    builds.emplace_back("core.tape_build_ms", [&cache, cfg, out] {
      out->metrics["rtl.tape_instructions"] += static_cast<double>(
          cache.tape(cfg, HardeningStyle::kNone, OptLevel::kFull)->instrs().size());
    });
    if (dwt::rtl::compiled::resolve_exec_tier(ExecTier::kAuto, 1) ==
        ExecTier::kNative) {
      builds.emplace_back("core.native_build_ms", [&cache, cfg] {
        (void)cache.native_block(cfg, HardeningStyle::kNone, OptLevel::kFull, 1);
      });
    }
  }
  timed_builds(tr, builds, out);
}

/// `hw::tile_forward` time of the first gate-level case's shape under each
/// execution tier; every tier must write the same plane.
void tier_ablation(Tracer& tr, const std::vector<Case>& cases, Output* out) {
  const auto gate = std::find_if(cases.begin(), cases.end(), [](const Case& c) {
    return c.backend == "rtl-compiled";
  });
  if (gate == cases.end()) return;
  const dwt::server::Request req = make_request(*gate);
  std::istringstream in(std::string(req.payload.begin(), req.payload.end()));
  dwt::dsp::Image input = dwt::dsp::read_pgm(in, "ablation input");
  dwt::dsp::level_shift_forward(input);
  dwt::dsp::round_coefficients(input);
  std::map<ExecTier, double> tier_ms;
  std::vector<double> reference;
  for (const ExecTier tier : {ExecTier::kAuto, ExecTier::kSwitch, ExecTier::kThreaded}) {
    dwt::hw::TileOptions opt = served_tile_options(req);
    opt.exec_tier = tier;
    std::vector<double> times;
    for (int rep = 0; rep < 3; ++rep) {
      dwt::dsp::Image plane = input;
      times.push_back(tr.timed(std::string("rtl.tier.") + dwt::rtl::compiled::to_string(tier),
                               -1, [&] { (void)dwt::hw::tile_forward(plane, opt); }));
      if (reference.empty()) reference = plane.data();
      if (plane.data() != reference) out->checks["tier_mismatch"] += 1;
    }
    tier_ms[tier] = median(times);
  }
  out->metrics["rtl.interp_over_native"] = tier_ms[ExecTier::kSwitch] / tier_ms[ExecTier::kAuto];
  out->metrics["rtl.threaded_over_interp"] =
      tier_ms[ExecTier::kThreaded] / tier_ms[ExecTier::kSwitch];
}

/// Gate-level forward cases through `hw::tile_forward` alone (no server
/// steps): the streaming layer of the compiled engine, for workloads that
/// do not serve these shapes themselves.
void run_streaming(Tracer& tr, const std::vector<Case>& cases, Output* out) {
  build_gate_artifacts(tr, cases, out);
  double wsum = 0.0, fwd_ms = 0.0, gate_ms = 0.0;
  for (const Case& c : cases) wsum += c.weight;
  for (const Case& c : cases) {
    const dwt::server::Request req = make_request(c);
    std::istringstream in(std::string(req.payload.begin(), req.payload.end()));
    dwt::dsp::Image input = dwt::dsp::read_pgm(in, c.name);
    dwt::dsp::level_shift_forward(input);
    dwt::dsp::round_coefficients(input);
    std::vector<double> times;
    for (int rep = 0; rep < 3; ++rep) {
      dwt::dsp::Image plane = input;
      dwt::hw::TileStats st;
      times.push_back(tr.timed("hw.tile_forward." + c.name, -1, [&] {
        st = dwt::hw::tile_forward(plane, served_tile_options(req));
      }));
      if (rep == 0) add_tile_stats(st, &out->metrics);
      if (pack_i32(plane) != c.expected) out->checks["golden_mismatch"] += 1;
    }
    const double m = median(times);
    out->shapes[c.name]["hw.tile_forward_ms"] = m;
    fwd_ms += c.weight / wsum * m;
    gate_ms += m;
  }
  out->metrics["hw.tile_forward_ms"] = fwd_ms;
  const double cycles = out->metrics["hw.core_cycles"];
  out->metrics["hw.host_ns_per_cycle"] = cycles > 0.0 ? gate_ms * 1e6 / cycles : 0.0;
  tier_ablation(tr, cases, out);
}

void run_served(Tracer& tr, const std::vector<Case>& cases, double budget_s,
                Output* out) {
  ArtifactCache& cache = ArtifactCache::instance();
  build_gate_artifacts(tr, cases, out);
  std::vector<dwt::server::Request> requests;
  std::vector<std::vector<std::uint8_t>> frames;
  for (const Case& c : cases) {
    requests.push_back(make_request(c));
    frames.push_back(dwt::server::encode_request(requests.back()));
  }
  // Warm-up: one untraced answer per case.  Anything the cache still
  // builds here was missed by the timed builds above.
  const CacheStats before_warm = cache.stats();
  for (const dwt::server::Request& r : requests) (void)dwt::server::execute_request(r);
  const CacheStats warm = cache.stats();
  out->checks["prebuild_misses"] =
      static_cast<double>(total_builds(warm) - total_builds(before_warm));

  std::vector<std::map<std::string, std::vector<double>>> per_case(cases.size());
  std::map<std::string, double> counts;
  int next_id = 0;
  const Clock::time_point t0 = Clock::now();
  for (int rep = 0; rep < 2 || seconds_since(t0) < budget_s; ++rep) {
    if (rep >= 200) break;
    for (std::size_t k = 0; k < cases.size(); ++k) {
      const Case& c = cases[k];
      if (c.weight == 0.0 && rep >= 2) continue;  // shown per shape only
      const int id = next_id++;
      std::map<std::string, double> stages;
      dwt::server::Response traced;
      const double total = tr.timed("request." + c.name, id, [&] {
        std::optional<dwt::server::Request> req;
        stages["server.decode_request_ms"] = tr.timed("server.decode_request", id, [&] {
          std::string error;
          req = dwt::server::decode_request(frames[k].data(), frames[k].size(), &error);
        });
        if (!req) throw std::runtime_error("decode_request rejected " + c.name);
        {
          const Clock::time_point e0 = Clock::now();
          traced = traced_execute(tr, id, *req, &stages, rep == 0 ? &counts : nullptr);
          stages["traced_execute_ms"] = seconds_since(e0) * 1e3;
        }
        stages["server.encode_response_ms"] = tr.timed("server.encode_response", id, [&] {
          (void)dwt::server::encode_response(traced);
        });
      });
      stages["traced_request_ms"] = total;
      // The opaque call, untraced: the reference for the tracing overhead.
      const Clock::time_point u0 = Clock::now();
      const dwt::server::Response plain = dwt::server::execute_request(requests[k]);
      stages["server.execute_request_ms"] = seconds_since(u0) * 1e3;
      if (traced.status != dwt::server::Status::kOk || traced.payload != c.expected) {
        out->checks["decomposed_mismatch"] += 1;
      }
      if (plain.status != dwt::server::Status::kOk || plain.payload != c.expected) {
        out->checks["golden_mismatch"] += 1;
      }
      for (const auto& [name, ms] : stages) per_case[k][name].push_back(ms);
    }
  }
  const CacheStats after = cache.stats();
  out->metrics["core.cache_builds"] =
      static_cast<double>(total_builds(after) - total_builds(warm));
  // Per executed request (traced and untraced), so the figure does not
  // depend on how many repetitions fit the budget.
  out->metrics["core.cache_hits"] = static_cast<double>(total_hits(after) - total_hits(warm)) /
                                    (2.0 * static_cast<double>(next_id));
  for (const auto& [name, v] : counts) out->metrics[name] = v;

  // Per-request layer times: the case weights mix the per-shape medians.
  // A layer that no weighted shape enters (the codec, for a mix of tile
  // requests) is the median over the weight-0 shapes that enter it.
  double wsum = 0.0;
  for (const Case& c : cases) wsum += c.weight;
  double gate_ms = 0.0, traced_exec = 0.0, plain_exec = 0.0;
  std::map<std::string, std::vector<double>> ride_along;
  for (std::size_t k = 0; k < cases.size(); ++k) {
    const double w = cases[k].weight / wsum;
    for (const auto& [name, v] : per_case[k]) {
      const double m = median(v);
      out->shapes[cases[k].name][name] = m;
      out->shapes[cases[k].name]["reps"] = static_cast<double>(v.size());
      if (name == "gate_forward_ms") {
        gate_ms += m;
      } else if (name == "traced_execute_ms") {
        traced_exec += w * m;
      } else if (name != "traced_request_ms") {
        out->metrics[name] += w * m;
        if (w == 0.0) ride_along[name].push_back(m);
      }
      if (name == "server.execute_request_ms") plain_exec += w * m;
    }
  }
  for (const auto& [name, v] : ride_along) {
    if (out->metrics[name] == 0.0) out->metrics[name] = median(v);
  }
  out->metrics["trace.overhead_pct"] =
      plain_exec > 0.0 ? 100.0 * (traced_exec - plain_exec) / plain_exec : 0.0;
  const double cycles = out->metrics["hw.core_cycles"];
  out->metrics["hw.host_ns_per_cycle"] = cycles > 0.0 ? gate_ms * 1e6 / cycles : 0.0;
  tier_ablation(tr, cases, out);
}

struct CampaignSpec {
  int design = 3;
  HardeningStyle harden = HardeningStyle::kNone;
  std::size_t trials = 0;
};

std::vector<CampaignSpec> parse_campaigns(const std::string& text) {
  std::vector<CampaignSpec> out;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    CampaignSpec s;
    const std::size_t a = item.find(':'), b = item.rfind(':');
    if (a == std::string::npos || a == b) throw std::invalid_argument("bad --campaign " + text);
    s.design = std::stoi(item.substr(0, a));
    const std::string h = item.substr(a + 1, b - a - 1);
    s.harden = h == "tmr"      ? HardeningStyle::kTmr
               : h == "parity" ? HardeningStyle::kParity
                               : HardeningStyle::kNone;
    s.trials = std::stoul(item.substr(b + 1));
    out.push_back(s);
  }
  return out;
}

void run_campaigns(Tracer& tr, const std::vector<CampaignSpec>& specs,
                   std::uint64_t seed, unsigned threads, Output* out) {
  ArtifactCache& cache = ArtifactCache::instance();
  cache.clear();
  const bool native = dwt::rtl::compiled::resolve_exec_tier(ExecTier::kAuto, 1) ==
                      ExecTier::kNative;
  std::vector<std::pair<std::string, std::function<void()>>> builds;
  for (const CampaignSpec& s : specs) {
    const dwt::hw::DatapathConfig cfg = dwt::hw::design_spec(design_id(s.design)).config;
    std::vector<HardeningStyle> styles = {HardeningStyle::kNone};
    if (s.harden != HardeningStyle::kNone) styles.push_back(s.harden);
    for (const HardeningStyle h : styles) {
      builds.emplace_back("core.design_build_ms", [&cache, cfg, h] { (void)cache.design(cfg, h); });
      builds.emplace_back("core.mapped_build_ms", [&cache, cfg, h] { (void)cache.mapped(cfg, h); });
      builds.emplace_back("core.tape_build_ms",
                          [&cache, cfg, h] { (void)cache.tape(cfg, h, OptLevel::kSafe); });
      if (native) {
        builds.emplace_back("core.native_build_ms", [&cache, cfg, h] {
          (void)cache.native_block(cfg, h, OptLevel::kSafe, 1);
        });
      }
    }
    builds.emplace_back("core.cone_build_ms", [&cache, cfg, h = s.harden, out] {
      (void)cache.cone_index(cfg, h, OptLevel::kSafe);
      out->metrics["rtl.tape_instructions"] +=
          static_cast<double>(cache.tape(cfg, h, OptLevel::kSafe)->instrs().size());
    });
  }
  timed_builds(tr, builds, out);

  const auto options = [&](const CampaignSpec& s, bool cone) {
    dwt::explore::ResilienceOptions opt;
    opt.design = design_id(s.design);
    opt.kinds = {dwt::rtl::FaultKind::kSeuFlip, dwt::rtl::FaultKind::kGlitch,
                 dwt::rtl::FaultKind::kStuckAt0, dwt::rtl::FaultKind::kStuckAt1};
    opt.trials = s.trials;
    opt.seed = seed;
    opt.harden = s.harden;
    opt.threads = threads;
    opt.keep_trials = false;
    opt.cone = cone;
    return opt;
  };
  // The shipped configuration (cone restriction on) first: after the timed
  // builds it should only hit the cache.
  const CacheStats warm = cache.stats();
  std::vector<dwt::explore::CampaignResult> results;
  double cone_ms = 0.0, full_ms = 0.0;
  for (const CampaignSpec& s : specs) {
    results.emplace_back();
    cone_ms += tr.timed("explore.run_campaign.d" + std::to_string(s.design) + ".cone", -1,
                        [&] { results.back() = dwt::explore::run_campaign(options(s, true)); });
  }
  const CacheStats after = cache.stats();
  out->metrics["core.cache_builds"] =
      static_cast<double>(total_builds(after) - total_builds(warm));
  out->metrics["core.cache_hits"] = static_cast<double>(total_hits(after) - total_hits(warm)) /
                                    static_cast<double>(specs.size());
  // Ablation: the same campaigns on full-tape batches must print the same
  // report.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    dwt::explore::CampaignResult full;
    full_ms += tr.timed("explore.run_campaign.d" + std::to_string(specs[i].design) + ".full",
                        -1, [&] { full = dwt::explore::run_campaign(options(specs[i], false)); });
    if (dwt::explore::to_json(results[i]) != dwt::explore::to_json(full)) {
      out->checks["cone_mismatch"] += 1;
    }
  }

  const std::vector<dwt::hw::PaperTable3Row> paper = dwt::hw::paper_table3();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const CampaignSpec& s = specs[i];
    const dwt::explore::CampaignResult& cone = results[i];
    out->metrics["explore.instructions_full"] += static_cast<double>(cone.cone.instructions_full);
    out->metrics["explore.instructions_cone"] += static_cast<double>(cone.cone.instructions_cone);
    out->metrics["explore.masked"] += static_cast<double>(cone.masked);
    out->metrics["explore.detected"] += static_cast<double>(cone.detected);
    out->metrics["explore.sdc"] += static_cast<double>(cone.sdc);
    const std::string d = "fpga.d" + std::to_string(s.design);
    const dwt::hw::PaperTable3Row& ref = paper.at(static_cast<std::size_t>(s.design - 1));
    const double les = static_cast<double>(cone.baseline.logic_elements);
    out->metrics[d + ".logic_elements"] = les;
    out->metrics[d + ".fmax_mhz"] = cone.baseline.fmax_mhz;
    const double les_err = 100.0 * (les - ref.area_les) / ref.area_les;
    const double fmax_err = 100.0 * (cone.baseline.fmax_mhz - ref.fmax_mhz) / ref.fmax_mhz;
    out->metrics[d + ".logic_elements_abs_err_pct"] = std::fabs(les_err);
    out->metrics[d + ".fmax_abs_err_pct"] = std::fabs(fmax_err);
    out->shapes[d] = {{"logic_elements", les},
                      {"fmax_mhz", cone.baseline.fmax_mhz},
                      {"paper_logic_elements", ref.area_les},
                      {"paper_fmax_mhz", ref.fmax_mhz},
                      {"logic_elements_err_pct", les_err},
                      {"fmax_err_pct", fmax_err}};
  }
  out->metrics["explore.cone_instr_ratio"] =
      out->metrics["explore.instructions_cone"] / out->metrics["explore.instructions_full"];
  out->metrics["explore.full_over_cone"] = full_ms / cone_ms;
}

void print_map(const char* key, const std::map<std::string, double>& m, bool last) {
  std::printf("\"%s\": {", key);
  bool first = true;
  for (const auto& [name, v] : m) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), v);
    first = false;
  }
  std::printf("}%s", last ? "" : ", ");
}

}  // namespace

int cmd_trace(int argc, char** argv) {
  const std::string workload = arg_value(argc, argv, "--workload", "");
  const std::string spans = arg_value(argc, argv, "--spans", "");
  const double budget = std::stod(arg_value(argc, argv, "--budget", "5"));
  Tracer tr;
  Output out;
  if (workload == "campaign") {
    const std::string streaming = arg_value(argc, argv, "--cases", "");
    if (!streaming.empty()) run_streaming(tr, load_cases(streaming), &out);
    run_campaigns(tr, parse_campaigns(arg_value(argc, argv, "--campaign", "")),
                  std::stoull(arg_value(argc, argv, "--seed", "1")),
                  static_cast<unsigned>(std::stoul(arg_value(argc, argv, "--threads", "2"))),
                  &out);
  } else {
    run_served(tr, load_cases(arg_value(argc, argv, "--cases", "")), budget, &out);
  }
  if (!spans.empty()) tr.write_chrome(spans);
  std::printf("{");
  print_map("metrics", out.metrics, false);
  print_map("self_ms", tr.self_ms(), false);
  print_map("checks", out.checks, false);
  std::printf("\"shapes\": {");
  bool first = true;
  for (const auto& [shape, m] : out.shapes) {
    std::printf("%s\"%s\": ", first ? "" : ", ", shape.c_str());
    first = false;
    std::printf("{");
    bool f2 = true;
    for (const auto& [name, v] : m) {
      std::printf("%s\"%s\": %.9g", f2 ? "" : ", ", name.c_str(), v);
      f2 = false;
    }
    std::printf("}");
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace perfbench
