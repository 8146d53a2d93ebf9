// Money: exact fixed-point currency type used throughout the QoS negotiation
// procedure for cost profiles, cost tables and document cost computation
// (paper Sec. 7). Stored as signed 64-bit micro-dollars so that per-second
// tariffs (fractions of a cent) accumulate without rounding drift.
#pragma once

#include <cstdint>
#include <compare>
#include <iosfwd>
#include <string>

namespace qosnp {

class Money {
 public:
  constexpr Money() = default;

  /// Construct from whole dollars.
  static constexpr Money dollars(std::int64_t d) { return Money{d * kMicrosPerDollar}; }
  /// Construct from cents.
  static constexpr Money cents(std::int64_t c) { return Money{c * kMicrosPerCent}; }
  /// Construct from micro-dollars (1e-6 $), the native resolution.
  static constexpr Money micros(std::int64_t u) { return Money{u}; }
  /// Construct from a double amount of dollars (rounds to nearest micro).
  static Money from_double(double d);
  /// Parse "12.34" / "$12.34" / "-0.005"; returns zero on malformed input.
  static Money parse(const std::string& text);

  constexpr std::int64_t as_micros() const { return micros_; }
  constexpr double as_dollars() const { return static_cast<double>(micros_) / kMicrosPerDollar; }
  constexpr bool is_zero() const { return micros_ == 0; }
  constexpr bool is_negative() const { return micros_ < 0; }

  /// Render as "$12.34" (two decimals) or "$12.3456" when sub-cent precision
  /// is present.
  std::string to_string() const;

  constexpr Money operator+(Money o) const { return Money{micros_ + o.micros_}; }
  constexpr Money operator-(Money o) const { return Money{micros_ - o.micros_}; }
  constexpr Money operator-() const { return Money{-micros_}; }
  constexpr Money& operator+=(Money o) { micros_ += o.micros_; return *this; }
  constexpr Money& operator-=(Money o) { micros_ -= o.micros_; return *this; }

  /// Scale by an integral factor (e.g. tariff x duration-in-seconds).
  constexpr Money operator*(std::int64_t k) const { return Money{micros_ * k}; }
  /// Scale by a real factor, rounding to nearest micro.
  Money scaled(double k) const;

  friend constexpr auto operator<=>(Money a, Money b) = default;

  static constexpr std::int64_t kMicrosPerDollar = 1'000'000;
  static constexpr std::int64_t kMicrosPerCent = 10'000;

 private:
  explicit constexpr Money(std::int64_t micros) : micros_(micros) {}
  std::int64_t micros_ = 0;
};

constexpr Money operator*(std::int64_t k, Money m) { return m * k; }

std::ostream& operator<<(std::ostream& os, Money m);

namespace money_literals {
constexpr Money operator""_usd(unsigned long long d) {
  return Money::dollars(static_cast<std::int64_t>(d));
}
constexpr Money operator""_cents(unsigned long long c) {
  return Money::cents(static_cast<std::int64_t>(c));
}
}  // namespace money_literals

}  // namespace qosnp
