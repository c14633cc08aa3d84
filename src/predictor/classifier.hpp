/**
 * @file
 * Saturating-counter classification for value prediction ([14], [8];
 * paper §3.1 and §5 use a 2-bit counter per instruction).
 *
 * The classifier gates a raw predictor: a prediction is only *used* when
 * the instruction's confidence counter is in the upper half of its range.
 * The counter trains on the raw predictor's correctness whether or not
 * the prediction was used.
 */

#ifndef VPSIM_PREDICTOR_CLASSIFIER_HPP
#define VPSIM_PREDICTOR_CLASSIFIER_HPP

#include <memory>

#include "common/sat_counter.hpp"
#include "predictor/last_value.hpp"
#include "predictor/stride.hpp"
#include "predictor/table_storage.hpp"
#include "predictor/two_delta.hpp"
#include "predictor/value_predictor.hpp"

namespace vpsim
{

/** One classified prediction, carried with the in-flight instruction. */
struct ClassifiedPrediction
{
    /** The machine should speculate on @c value. */
    bool predicted = false;
    /** Predicted destination value (valid when @c predicted). */
    Value value = 0;
    /** The raw predictor had history (even if confidence gated it off). */
    bool rawAvailable = false;
    /** The raw predictor's value, used to train the classifier. */
    Value rawValue = 0;
};

/** What a wrong raw prediction does to the confidence counter. */
enum class MissPolicy
{
    /** Decrement by one (plain up/down counter). */
    Decrement,
    /**
     * Reset to zero. A misprediction costs real cycles (the dependents
     * reissue), so confidence must be re-earned; this keeps instructions
     * with oscillating values from repeatedly speculating wrongly.
     */
    Reset,
};

/** A raw value predictor gated by per-instruction confidence counters. */
class ClassifiedPredictor
{
  public:
    /**
     * @param raw_predictor The underlying predictor (owned).
     * @param counter_bits Saturating-counter width (paper: 2).
     * @param counter_capacity 0 = a counter per static instruction
     *        (paper's infinite assumption); else a power-of-two table.
     * @param miss_policy Counter reaction to a wrong raw prediction.
     */
    explicit ClassifiedPredictor(
        std::unique_ptr<ValuePredictor> raw_predictor,
        unsigned counter_bits = 2, std::size_t counter_capacity = 0,
        MissPolicy miss_policy = MissPolicy::Reset);

    /** Look up and classification-gate a prediction for @p pc. */
    ClassifiedPrediction predict(Addr pc);

    /**
     * Batched probe warm-up for a whole trace span / fetch bundle of
     * upcoming predict() pcs: prefetches the confidence-counter slots
     * and the raw predictor's table slots. Pure cache hint, no state
     * change; machines call it once per delivered block.
     */
    void
    probeBlock(const Addr *pcs, std::size_t n)
    {
        counters.probeBlock(pcs, n);
        rawPredictor->prefetchBlock(pcs, n);
    }

    /**
     * Train with the actual outcome. Must be called exactly once per
     * predict(), with the ClassifiedPrediction that predict() returned.
     */
    void update(Addr pc, const ClassifiedPrediction &prediction,
                Value actual);

    /**
     * Fused predict() + update() for callers that verify immediately
     * (the ideal machine knows the actual value in the same step).
     * Produces exactly the predict() result and applies exactly the
     * update() training, but touches the confidence table once and
     * reaches the raw predictor through a single fused call
     * (ValuePredictor::lookupTrain) — devirtualized via fusedClass()
     * for the stock predictors, so the whole prediction step inlines
     * into the machine's block loop. Defined inline for that reason.
     */
    ClassifiedPrediction
    predictAndTrain(Addr pc, Value actual)
    {
        ++numLookups;
        ClassifiedPrediction result;
        // rawClass is constant for the predictor's lifetime, so this
        // switch costs one perfectly predicted branch and buys the
        // concrete lookupTrain body inlined here (no virtual call, no
        // spilled registers around an opaque boundary). The co-located
        // classifier slot (cls) rides back on the same table walk.
        RawPrediction raw_result;
        ClassifierState *cls = nullptr;
        switch (rawClass) {
        case ValuePredictor::FusedClass::LastValue:
            raw_result = static_cast<LastValuePredictor &>(*rawPredictor)
                             .lookupTrain(pc, actual, cls);
            break;
        case ValuePredictor::FusedClass::Stride:
            raw_result = static_cast<StridePredictor &>(*rawPredictor)
                             .lookupTrain(pc, actual, cls);
            break;
        case ValuePredictor::FusedClass::TwoDeltaStride:
            raw_result =
                static_cast<TwoDeltaStridePredictor &>(*rawPredictor)
                    .lookupTrain(pc, actual, cls);
            break;
        case ValuePredictor::FusedClass::Generic:
            raw_result = rawPredictor->lookupTrain(pc, actual, cls);
            break;
        }
        if (!raw_result.hasPrediction)
            return result;
        result.rawAvailable = true;
        result.rawValue = raw_result.value;

        // Confidence probe. The fast path reads the classifier state
        // embedded in the raw predictor's entry (the paper stores the
        // counter in the VP table entry too) — no second hash, no
        // second slot walk. Predictors that cannot co-locate (finite
        // tables: distinct eviction interleavings) return cls ==
        // nullptr and use the separate counter table exactly as the
        // split predict()/update() path does.
        std::uint16_t count;
        CounterEntry *entry = nullptr;
        if (cls) {
            count = cls->count;
        } else {
            bool allocated = false;
            entry = &counters.findOrAllocate(pc, &allocated);
            if (allocated)
                entry->counter = SatCounter(counterBits);
            count = static_cast<std::uint16_t>(entry->counter.value());
        }
        const bool predicted = count >= counterThreshold;
        result.predicted = predicted;
        result.value = predicted ? raw_result.value : Value{0};

        // Straight-line bookkeeping: correctness flips with the
        // simulated values, so the branchy form of this (see update())
        // mispredicts on the hot path. When a prediction was issued,
        // its value is the raw value, so value-correct and raw-correct
        // coincide. The counter update mirrors SatCounter::train.
        const bool raw_correct = result.rawValue == actual;
        const std::uint16_t raised =
            count < counterMax ? static_cast<std::uint16_t>(count + 1)
                               : count;
        const std::uint16_t dropped =
            count > 0 ? static_cast<std::uint16_t>(count - 1) : count;
        const std::uint16_t lowered = resetOnMiss ? 0 : dropped;
        const std::uint16_t trained = raw_correct ? raised : lowered;
        if (cls)
            cls->count = trained;
        else
            entry->counter = SatCounter(counterBits, trained);
        numPredicted += predicted ? 1 : 0;
#ifndef VPSIM_MUTATION_CLASSIFIER_DROP_CORRECT
        // Mutation target: see update() — the same drop must stay
        // observable through the fused path.
        numCorrect += (predicted && raw_correct) ? 1 : 0;
#endif
        numWrong += (predicted && !raw_correct) ? 1 : 0;
        numMissed += (!predicted && raw_correct) ? 1 : 0;
        return result;
    }

    /** The underlying raw predictor. */
    ValuePredictor &raw() { return *rawPredictor; }
    const ValuePredictor &raw() const { return *rawPredictor; }

    /**
     * Release a prediction whose instruction was squashed: the raw
     * predictor's in-flight slot is freed; confidence counters are
     * untouched (hardware trains at verify, which never happens).
     */
    void abandon(Addr pc);

    /** Forget all predictor and classifier state. */
    void reset();

    /** @name Statistics */
    /// @{
    /** predict() calls. */
    std::uint64_t lookups() const { return numLookups; }
    /** Gated predictions issued. */
    std::uint64_t predictionsMade() const { return numPredicted; }
    /** Gated predictions that were correct. */
    std::uint64_t predictionsCorrect() const { return numCorrect; }
    /** Gated predictions that were wrong (cost a penalty). */
    std::uint64_t predictionsWrong() const { return numWrong; }
    /** Raw-correct outcomes the classifier declined to use. */
    std::uint64_t missedOpportunities() const { return numMissed; }
    /** Squashed (wrong-path) lookups released without training. */
    std::uint64_t abandonedLookups() const { return numAbandoned; }
    /** Accuracy of issued predictions (1.0 when none issued). */
    double accuracy() const;
    /// @}

  private:
    struct CounterEntry
    {
        SatCounter counter{2};
    };

    std::unique_ptr<ValuePredictor> rawPredictor;
    unsigned counterBits;
    MissPolicy missPolicy;
    /** Cached rawPredictor->fusedClass() for the devirtualized path. */
    ValuePredictor::FusedClass rawClass =
        ValuePredictor::FusedClass::Generic;
    /** @name Cached counter geometry (from counterBits / missPolicy) */
    /// @{
    std::uint16_t counterThreshold = 2;
    std::uint16_t counterMax = 3;
    bool resetOnMiss = true;
    /// @}
    PredictionTable<CounterEntry> counters;

    std::uint64_t numLookups = 0;
    std::uint64_t numPredicted = 0;
    std::uint64_t numCorrect = 0;
    std::uint64_t numWrong = 0;
    std::uint64_t numMissed = 0;
    std::uint64_t numAbandoned = 0;
};

} // namespace vpsim

#endif // VPSIM_PREDICTOR_CLASSIFIER_HPP
