/**
 * @file
 * Saturating up/down counter, the basic confidence-estimation element used
 * by the value-prediction classifier (paper §3.1, §5) and the 2-level
 * branch predictor's pattern history table (paper §5, [27]).
 */

#ifndef VPSIM_COMMON_SAT_COUNTER_HPP
#define VPSIM_COMMON_SAT_COUNTER_HPP

#include <cstdint>

#include "common/logging.hpp"

namespace vpsim
{

/**
 * An n-bit saturating counter.
 *
 * The counter saturates at [0, 2^bits - 1]. The classifier convention used
 * throughout the simulator is "predict when the counter is in the upper
 * half", exposed as isSet().
 */
class SatCounter
{
  public:
    /**
     * @param bits Counter width in bits (1..16).
     * @param initial Initial counter value (clamped to the legal range).
     */
    explicit SatCounter(unsigned bits = 2, unsigned initial = 0)
        : maxValue(static_cast<std::uint16_t>((1u << bits) - 1)),
          threshold(1u << (bits - 1)),
          count(static_cast<std::uint16_t>(
              initial > maxValue ? maxValue : initial))
    {
        panicIf(bits == 0 || bits > 16, "SatCounter width out of range");
    }

    /** Increment, saturating at the maximum. */
    void
    increment()
    {
        if (count < maxValue)
            ++count;
    }

    /** Decrement, saturating at zero. */
    void
    decrement()
    {
        if (count > 0)
            --count;
    }

    /** Reset to zero (strongest "do not predict"). */
    void reset() { count = 0; }

    /**
     * One training step as straight-line selects: increment() when
     * @p up; otherwise reset() when @p reset_on_down, else
     * decrement(). Confidence outcomes flip with the simulated data,
     * so the branchy equivalents mispredict; hot classifier paths use
     * this form.
     */
    void
    train(bool up, bool reset_on_down)
    {
        const std::uint16_t raised =
            count < maxValue ? static_cast<std::uint16_t>(count + 1)
                             : count;
        const std::uint16_t dropped =
            count > 0 ? static_cast<std::uint16_t>(count - 1) : count;
        const std::uint16_t lowered = reset_on_down ? 0 : dropped;
        count = up ? raised : lowered;
    }

    /** True when the counter is in the upper half of its range. */
    bool isSet() const { return count >= threshold; }

    /** True when fully saturated high. */
    bool isSaturated() const { return count == maxValue; }

    /** Raw counter value. */
    unsigned value() const { return count; }

    /** Largest representable value. */
    unsigned max() const { return maxValue; }

  private:
    std::uint16_t maxValue;
    std::uint16_t threshold;
    std::uint16_t count;
};

} // namespace vpsim

#endif // VPSIM_COMMON_SAT_COUNTER_HPP
