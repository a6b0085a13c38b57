#include "chaos/fault_plan.hpp"

#include <algorithm>
#include <map>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace riv::chaos {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrashProcess:   return "crash";
    case FaultKind::kRecoverProcess: return "recover";
    case FaultKind::kPartition:      return "partition";
    case FaultKind::kHealPartition:  return "heal-partition";
    case FaultKind::kEdgeDown:       return "edge-down";
    case FaultKind::kEdgeUp:         return "edge-up";
    case FaultKind::kEdgeDelay:      return "edge-delay";
    case FaultKind::kEdgeDelayClear: return "edge-delay-clear";
    case FaultKind::kEdgeLoss:       return "edge-loss";
    case FaultKind::kEdgeLossClear:  return "edge-loss-clear";
    case FaultKind::kDeviceLinkLoss: return "device-link-loss";
    case FaultKind::kDeviceCrash:    return "device-crash";
    case FaultKind::kDeviceRecover:  return "device-recover";
    case FaultKind::kQuiesceBegin:   return "quiesce-begin";
    case FaultKind::kQuiesceEnd:     return "quiesce-end";
    case FaultKind::kSpoofEvent:     return "spoof-event";
    case FaultKind::kReplayEvent:    return "replay-event";
    case FaultKind::kCorruptBegin:   return "corrupt-begin";
    case FaultKind::kCorruptEnd:     return "corrupt-end";
  }
  return "?";
}

std::string to_string(const FaultAction& action) {
  // Appends only: `const char* + std::string&&` trips GCC's -Wrestrict.
  std::string out = to_string(action.kind);
  auto edge = [&] {
    out += ' ';
    out += to_string(action.a);
    out += "->";
    out += to_string(action.b);
  };
  switch (action.kind) {
    case FaultKind::kCrashProcess:
    case FaultKind::kRecoverProcess:
    case FaultKind::kCorruptBegin:
    case FaultKind::kCorruptEnd:
      out += ' ';
      out += to_string(action.a);
      break;
    case FaultKind::kPartition: {
      out += " A={";
      bool first = true;
      for (ProcessId p : action.group) {
        if (!first) out += ",";
        out += to_string(p);
        first = false;
      }
      out += "}";
      break;
    }
    case FaultKind::kHealPartition:
    case FaultKind::kQuiesceBegin:
    case FaultKind::kQuiesceEnd:
      break;
    case FaultKind::kEdgeDown:
    case FaultKind::kEdgeUp:
    case FaultKind::kEdgeDelayClear:
    case FaultKind::kEdgeLossClear:
      edge();
      break;
    case FaultKind::kEdgeDelay:
      edge();
      out += " extra=";
      out += std::to_string(action.dur.us);
      out += "us";
      break;
    case FaultKind::kEdgeLoss:
      edge();
      out += " p=";
      out += std::to_string(action.value);
      break;
    case FaultKind::kDeviceLinkLoss:
      out += ' ';
      out += to_string(action.sensor);
      out += "->";
      out += to_string(action.b);
      if (action.value < 0.0) {
        out += " restore";
      } else {
        out += " p=";
        out += std::to_string(action.value);
      }
      break;
    case FaultKind::kDeviceCrash:
    case FaultKind::kDeviceRecover:
      out += ' ';
      out += to_string(action.sensor);
      break;
    case FaultKind::kSpoofEvent:
      out += ' ';
      out += to_string(action.sensor);
      out += '#';
      out += std::to_string(action.seq);
      out += " dst=";
      out += to_string(action.b);
      break;
    case FaultKind::kReplayEvent:
      out += ' ';
      out += to_string(action.sensor);
      out += " dst=";
      out += to_string(action.b);
      out += " idx=";
      out += std::to_string(action.seq);
      break;
  }
  return out;
}

namespace {

// Fault categories the generator can pick from at one instant.
enum Category {
  kCatCrash,
  kCatRecover,
  kCatPartition,
  kCatAsym,
  kCatDelay,
  kCatLoss,
  kCatDeviceLoss,
  kCatDeviceCrash,
  kCatSpoof,
  kCatReplay,
  kCatCorrupt,
};

}  // namespace

FaultPlan generate_plan(std::uint64_t seed, PlanOptions options) {
  RIV_ASSERT(options.n_processes >= 1, "plan needs at least one process");
  FaultPlan plan;
  plan.seed = seed;
  plan.options = options;

  // Decouple the plan stream from the simulation seed so running the plan
  // does not perturb workload randomness derived from the same seed.
  Rng rng(seed * 0x9e3779b97f4a7c15ULL ^ 0xc5a0d9f4752ad11bULL);

  const int n = options.n_processes;
  auto pid = [](int i) {
    return ProcessId{static_cast<std::uint16_t>(i + 1)};
  };

  // --- generator's model of home state -------------------------------
  std::vector<bool> up(static_cast<std::size_t>(n), true);
  int up_count = n;
  bool partition_active = false;
  // Per-edge / per-device "busy until": while a timed fault (sever, delay
  // spike, loss, device crash) is outstanding on an entity, no new fault
  // of the same kind targets it, so down/up pairs never interleave.
  std::map<std::pair<int, int>, TimePoint> sever_busy, delay_busy, loss_busy;
  std::map<std::pair<SensorId, ProcessId>, TimePoint> dev_link_busy;
  std::map<SensorId, TimePoint> device_busy;
  // At most one compromised process at a time; crashes are suppressed
  // while a corrupt span is open so the victim is never the last correct
  // (up and honest) process.
  int corrupt_idx = -1;
  TimePoint corrupt_until{};
  std::uint32_t spoof_seq = 0;

  auto emit = [&plan](FaultAction a) { plan.actions.push_back(std::move(a)); };
  auto make = [](TimePoint at, FaultKind kind) {
    FaultAction a;
    a.at = at;
    a.kind = kind;
    return a;
  };

  auto rand_duration = [&rng](Duration lo, Duration hi) {
    return Duration{static_cast<std::int64_t>(rng.uniform(
        static_cast<double>(lo.us), static_cast<double>(hi.us)))};
  };
  auto rand_pair = [&]() {
    int a = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(n)));
    int b = static_cast<int>(
        rng.uniform_int(static_cast<std::uint64_t>(n - 1)));
    if (b >= a) ++b;
    return std::make_pair(a, b);
  };

  const TimePoint horizon_end = TimePoint{} + options.horizon;
  TimePoint t{};
  TimePoint next_quiesce = t + options.quiesce_every;
  auto advance = [&] {
    Duration gap{static_cast<std::int64_t>(
        rng.exponential(static_cast<double>(options.mean_gap.us)))};
    t = t + std::max(milliseconds(50), gap);
  };
  advance();

  while (t < horizon_end) {
    // Partial-quiescence window: heal everything, let the home converge,
    // then resume chaos. The injector runs converged-state invariant
    // checks at the kQuiesceEnd mark.
    if (corrupt_idx >= 0 && t >= corrupt_until) corrupt_idx = -1;

    if (options.quiesce_every.us > 0 && t >= next_quiesce) {
      emit(make(t, FaultKind::kQuiesceBegin));
      std::fill(up.begin(), up.end(), true);
      up_count = n;
      partition_active = false;
      corrupt_idx = -1;  // quiesce heals compromised processes too
      t = t + options.quiesce_len;
      emit(make(t, FaultKind::kQuiesceEnd));
      next_quiesce = t + options.quiesce_every;
      advance();
      continue;
    }

    std::vector<Category> cats;
    if (options.crashes && up_count > 1 && corrupt_idx < 0)
      cats.push_back(kCatCrash);
    if (options.crashes && up_count < n) cats.push_back(kCatRecover);
    if (options.partitions && n >= 2) cats.push_back(kCatPartition);
    if (options.asym_partitions && n >= 2) cats.push_back(kCatAsym);
    if (options.delay_spikes && n >= 2) cats.push_back(kCatDelay);
    if (options.edge_loss && n >= 2) cats.push_back(kCatLoss);
    if (options.device_link_loss && !options.device_links.empty())
      cats.push_back(kCatDeviceLoss);
    if (options.device_crashes && !options.devices.empty())
      cats.push_back(kCatDeviceCrash);
    if (options.spoof_events && !options.device_links.empty())
      cats.push_back(kCatSpoof);
    if (options.replay_events && !options.device_links.empty())
      cats.push_back(kCatReplay);
    if (options.corrupt_process && up_count >= 2 && corrupt_idx < 0)
      cats.push_back(kCatCorrupt);
    if (cats.empty()) {
      advance();
      continue;
    }

    switch (cats[rng.uniform_int(cats.size())]) {
      case kCatCrash: {
        int victim;
        do {
          victim = static_cast<int>(
              rng.uniform_int(static_cast<std::uint64_t>(n)));
        } while (!up[static_cast<std::size_t>(victim)]);
        up[static_cast<std::size_t>(victim)] = false;
        --up_count;
        FaultAction a = make(t, FaultKind::kCrashProcess);
        a.a = pid(victim);
        emit(std::move(a));
        break;
      }
      case kCatRecover: {
        int victim;
        do {
          victim = static_cast<int>(
              rng.uniform_int(static_cast<std::uint64_t>(n)));
        } while (up[static_cast<std::size_t>(victim)]);
        up[static_cast<std::size_t>(victim)] = true;
        ++up_count;
        FaultAction a = make(t, FaultKind::kRecoverProcess);
        a.a = pid(victim);
        emit(std::move(a));
        break;
      }
      case kCatPartition: {
        if (partition_active) {
          emit(make(t, FaultKind::kHealPartition));
          partition_active = false;
          break;
        }
        std::vector<ProcessId> side_a;
        while (side_a.empty() || static_cast<int>(side_a.size()) == n) {
          side_a.clear();
          for (int i = 0; i < n; ++i) {
            if (rng.bernoulli(0.5)) side_a.push_back(pid(i));
          }
        }
        FaultAction a = make(t, FaultKind::kPartition);
        a.group = std::move(side_a);
        emit(std::move(a));
        partition_active = true;
        break;
      }
      case kCatAsym: {
        auto [ai, bi] = rand_pair();
        auto key = std::make_pair(ai, bi);
        auto it = sever_busy.find(key);
        if (it != sever_busy.end() && it->second > t) break;
        Duration hold = rand_duration(seconds(1), options.max_fault_hold);
        sever_busy[key] = t + hold;
        FaultAction down = make(t, FaultKind::kEdgeDown);
        down.a = pid(ai);
        down.b = pid(bi);
        down.dur = hold;
        emit(std::move(down));
        FaultAction rest = make(t + hold, FaultKind::kEdgeUp);
        rest.a = pid(ai);
        rest.b = pid(bi);
        emit(std::move(rest));
        break;
      }
      case kCatDelay: {
        auto [ai, bi] = rand_pair();
        auto key = std::make_pair(ai, bi);
        auto it = delay_busy.find(key);
        if (it != delay_busy.end() && it->second > t) break;
        Duration hold = rand_duration(seconds(1), options.max_fault_hold);
        delay_busy[key] = t + hold;
        FaultAction spike = make(t, FaultKind::kEdgeDelay);
        spike.a = pid(ai);
        spike.b = pid(bi);
        spike.dur = rand_duration(milliseconds(20), options.max_delay_spike);
        emit(std::move(spike));
        FaultAction clear = make(t + hold, FaultKind::kEdgeDelayClear);
        clear.a = pid(ai);
        clear.b = pid(bi);
        emit(std::move(clear));
        break;
      }
      case kCatLoss: {
        auto [ai, bi] = rand_pair();
        auto key = std::make_pair(ai, bi);
        auto it = loss_busy.find(key);
        if (it != loss_busy.end() && it->second > t) break;
        Duration hold = rand_duration(seconds(1), options.max_fault_hold);
        loss_busy[key] = t + hold;
        FaultAction lossy = make(t, FaultKind::kEdgeLoss);
        lossy.a = pid(ai);
        lossy.b = pid(bi);
        lossy.value = rng.uniform(0.15, options.max_edge_loss);
        emit(std::move(lossy));
        FaultAction clear = make(t + hold, FaultKind::kEdgeLossClear);
        clear.a = pid(ai);
        clear.b = pid(bi);
        emit(std::move(clear));
        break;
      }
      case kCatDeviceLoss: {
        const auto& link = options.device_links[rng.uniform_int(
            options.device_links.size())];
        auto it = dev_link_busy.find(link);
        if (it != dev_link_busy.end() && it->second > t) break;
        Duration hold = rand_duration(seconds(2), options.max_fault_hold);
        dev_link_busy[link] = t + hold;
        // Loss ramp: step to a moderate level, spike, then restore the
        // pre-chaos baseline (§2.1's interference episodes).
        double mid = rng.uniform(0.2, options.max_device_link_loss / 2);
        double high =
            rng.uniform(options.max_device_link_loss / 2,
                        options.max_device_link_loss);
        FaultAction step = make(t, FaultKind::kDeviceLinkLoss);
        step.sensor = link.first;
        step.b = link.second;
        step.value = mid;
        emit(std::move(step));
        FaultAction spike = make(t + hold / 2, FaultKind::kDeviceLinkLoss);
        spike.sensor = link.first;
        spike.b = link.second;
        spike.value = high;
        emit(std::move(spike));
        FaultAction restore = make(t + hold, FaultKind::kDeviceLinkLoss);
        restore.sensor = link.first;
        restore.b = link.second;
        restore.value = -1.0;
        emit(std::move(restore));
        break;
      }
      case kCatDeviceCrash: {
        SensorId dev =
            options.devices[rng.uniform_int(options.devices.size())];
        auto it = device_busy.find(dev);
        if (it != device_busy.end() && it->second > t) break;
        Duration hold = rand_duration(seconds(1), options.max_fault_hold);
        device_busy[dev] = t + hold;
        FaultAction crash = make(t, FaultKind::kDeviceCrash);
        crash.sensor = dev;
        crash.dur = hold;
        emit(std::move(crash));
        FaultAction rec = make(t + hold, FaultKind::kDeviceRecover);
        rec.sensor = dev;
        emit(std::move(rec));
        break;
      }
      case kCatSpoof: {
        const auto& link = options.device_links[rng.uniform_int(
            options.device_links.size())];
        FaultAction a = make(t, FaultKind::kSpoofEvent);
        a.sensor = link.first;
        a.b = link.second;
        // Forged sequence numbers live far above anything a real sensor
        // reaches in a run, so a spoof is never accidentally well-formed.
        a.seq = (1u << 20) + spoof_seq++;
        a.value = rng.uniform(0.0, 1.0);
        emit(std::move(a));
        break;
      }
      case kCatReplay: {
        const auto& link = options.device_links[rng.uniform_int(
            options.device_links.size())];
        FaultAction a = make(t, FaultKind::kReplayEvent);
        a.sensor = link.first;
        a.b = link.second;
        // Raw draw; the injector reduces it modulo the sensor's recent
        // emission window at apply time.
        a.seq = static_cast<std::uint32_t>(rng.next() & 0xffffu);
        emit(std::move(a));
        break;
      }
      case kCatCorrupt: {
        int victim;
        do {
          victim = static_cast<int>(
              rng.uniform_int(static_cast<std::uint64_t>(n)));
        } while (!up[static_cast<std::size_t>(victim)]);
        Duration hold = rand_duration(seconds(1), options.max_fault_hold);
        corrupt_idx = victim;
        corrupt_until = t + hold;
        FaultAction begin = make(t, FaultKind::kCorruptBegin);
        begin.a = pid(victim);
        begin.dur = hold;
        emit(std::move(begin));
        FaultAction end = make(t + hold, FaultKind::kCorruptEnd);
        end.a = pid(victim);
        emit(std::move(end));
        break;
      }
    }
    advance();
  }

  // Close the plan with a full heal so the drain phase starts from a
  // fault-free home.
  emit(make(horizon_end, FaultKind::kQuiesceBegin));

  std::stable_sort(plan.actions.begin(), plan.actions.end(),
                   [](const FaultAction& x, const FaultAction& y) {
                     return x.at < y.at;
                   });
  return plan;
}

}  // namespace riv::chaos
