#include "energy/meter.hpp"

#include <cstdio>
#include <stdexcept>

namespace pmware::energy {

void EnergyMeter::charge_sample(Interface interface, SimTime /*t*/) {
  const auto idx = static_cast<std::size_t>(interface);
  per_interface_j_[idx] += profile_.sample_energy(interface);
  ++per_interface_count_[idx];
}

void EnergyMeter::charge_samples(Interface interface, std::size_t n,
                                 SimTime /*t*/) {
  const auto idx = static_cast<std::size_t>(interface);
  const double e = profile_.sample_energy(interface);
  // Summed one sample at a time, not as n*e: repeated addition is what
  // charge_sample() does, and the study fingerprint compares joules exactly.
  for (std::size_t k = 0; k < n; ++k) per_interface_j_[idx] += e;
  per_interface_count_[idx] += n;
}

void EnergyMeter::charge_baseline(SimTime from, SimTime to) {
  if (to < from) throw std::invalid_argument("charge_baseline: to < from");
  baseline_j_ += profile_.base_power_w * static_cast<double>(to - from);
}

double EnergyMeter::sensing_j() const {
  double total = 0;
  for (double j : per_interface_j_) total += j;
  return total;
}

double EnergyMeter::total_j() const { return sensing_j() + baseline_j_; }

double EnergyMeter::average_power_w(SimDuration span) const {
  if (span <= 0) throw std::invalid_argument("average_power_w: span <= 0");
  return total_j() / static_cast<double>(span);
}

double EnergyMeter::implied_battery_duration_s(SimDuration span,
                                               const Battery& battery) const {
  return battery_duration_s(battery, average_power_w(span));
}

std::string EnergyMeter::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "sensing %.1f J (gsm %zu, wifi %zu, gps %zu, accel %zu, bt %zu "
                "samples), baseline %.1f J",
                sensing_j(), sample_count(Interface::Gsm),
                sample_count(Interface::Wifi), sample_count(Interface::Gps),
                sample_count(Interface::Accelerometer),
                sample_count(Interface::Bluetooth), baseline_j_);
  return buf;
}

}  // namespace pmware::energy
