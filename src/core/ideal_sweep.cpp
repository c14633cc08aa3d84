#include "core/ideal_sweep.hpp"

namespace vpsim
{

IdealSweep::IdealSweep(std::size_t max_columns) : columns(max_columns) {}

IdealMachineResult
IdealSweep::run(TraceSource &source, const IdealMachineConfig &config)
{
    if (!config.useValuePrediction) {
        return baselines.get(TimingKey::of(config), [&] {
            IdealMachineResult result = runIdealMachine(source, config);
            ++baselineRuns;
            return result;
        });
    }
    if (config.perfectValuePrediction)
        return runIdealMachine(source, config);

    const std::shared_ptr<const OutcomeColumn> outcomes =
        columns.get(PredictorKey::of(config), [&] {
            auto column = std::make_shared<const OutcomeColumn>(
                computeOutcomes(source, config));
            ++predictorPasses;
            return column;
        });
    ++replays;
    return runIdealMachine(source, config, *outcomes);
}

double
IdealSweep::vpSpeedup(TraceSource &source, const IdealMachineConfig &config)
{
    IdealMachineConfig base = config;
    base.useValuePrediction = false;
    IdealMachineConfig vp = config;
    vp.useValuePrediction = true;

    const IdealMachineResult base_result = run(source, base);
    const IdealMachineResult vp_result = run(source, vp);
    if (vp_result.cycles == 0)
        return 1.0;
    return static_cast<double>(base_result.cycles) /
           static_cast<double>(vp_result.cycles);
}

double
IdealSweep::vpSpeedup(const std::vector<TraceRecord> &records,
                      const IdealMachineConfig &config)
{
    BorrowedTraceSource source{TraceSpan(records)};
    return vpSpeedup(source, config);
}

IdealSweep::Counters
IdealSweep::counters() const
{
    Counters counts;
    counts.predictorPasses = predictorPasses.load();
    counts.baselineRuns = baselineRuns.load();
    counts.replays = replays.load();
    return counts;
}

// idealVpSpeedup() is declared with the machine (core/ideal_machine.hpp)
// but lives here: a one-cell sweep is the same fused path every sweep
// takes.
double
idealVpSpeedup(TraceSource &source, const IdealMachineConfig &config)
{
    IdealSweep sweep;
    return sweep.vpSpeedup(source, config);
}

double
idealVpSpeedup(const std::vector<TraceRecord> &records,
               const IdealMachineConfig &config)
{
    IdealSweep sweep;
    return sweep.vpSpeedup(records, config);
}

} // namespace vpsim
