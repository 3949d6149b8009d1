//! Materialized silicon statics: contiguous per-row / per-column buffers
//! of the pure-hash parameters the event kernels consume.
//!
//! Every static parameter in [`Silicon`] is a pure function of
//! `(chip seed, parameter id, coordinates)` — see
//! [`crate::variation`]. This cache builds each buffer once per
//! (chip, coordinate) and hands the kernels plain slices:
//!
//! - [`RowStatics`] per (bank, sub-array, row): cell capacitance,
//!   charge-injection offset and stuck cells (the share half), leakage
//!   tau at 20 °C and the VRT column list (the leak half);
//! - [`ColStatics`] per (bank, sub-array): sense-amplifier offset,
//!   its temperature coefficient, anti-cell polarity, and the Half-m
//!   closure asymmetry;
//! - per-slot multi-row share weights.
//!
//! A miss fills a buffer in slice passes: the key prefix shared by the
//! whole row or sub-array is folded once, each column finishes it, and
//! Box–Muller runs as one pass per step over all columns. Each half of
//! the statics is built only when a kernel first reads it — the leak
//! half on a row's first real leak, the Half-m asymmetry on the first
//! Half-m close — as a deferred fill of the same buffer, so hit and miss
//! counts do not depend on which halves were read.
//!
//! **Determinism argument.** Caching cannot change any simulated value:
//! the prefix fold plus the per-column finish is the same hash chain as
//! the full per-cell key, and every slice pass evaluates, per lane, the
//! expression the [`Silicon`] method evaluates, in the same order. The
//! buffers therefore hold the same `f64`/`f32` bit patterns the direct
//! [`Silicon`] calls return, which stay as the oracle the tests compare
//! against. The stateful temporal-noise RNG is never involved. The cache
//! is keyed off the silicon seed — asking it about a chip with a
//! different seed drops every buffer and rebuilds, so stale statics can
//! never leak across chips. Experiment stdout is byte-identical with or
//! without the cache; only wall time changes.

use std::collections::HashMap;

use crate::chip::ChipConfig;
use crate::env::Environment;
use crate::faults::FaultPlan;
use crate::perf::ModelPerf;
use crate::silicon::Silicon;
use crate::variation::{LaneScratch, ParamId};

/// Cached decay-factor vectors are evicted wholesale past this count;
/// each entry is one row's worth of `f64`s for one `(dt, scale)` pair.
const DECAY_VEC_CAP: usize = 512;

/// Materialized sense thresholds of one sub-array, tagged with the
/// environment they were computed under.
#[derive(Debug, Clone, PartialEq)]
pub struct SenseThresholds {
    temp_bits: u64,
    vdd_bits: u64,
    /// Final per-column comparison threshold (anti-cell mirror already
    /// applied).
    pub th: Box<[f64]>,
}

/// Static per-cell parameters of one row, as contiguous buffers.
///
/// The row is built in two halves, each on first read: the share half
/// (`cap`, `inject`, `stuck`) by [`MaterializeCache::ensure_row`], the
/// leak half (`tau20`, `vrt`) by the row's first real leak, through
/// [`MaterializeCache::ensure_decay_factors`]. A row that is only ever
/// shared and sensed (a PUF row) never samples its leak statics.
#[derive(Debug, Clone, PartialEq)]
pub struct RowStatics {
    /// Cell capacitance (fF), one entry per column.
    pub cap: Box<[f32]>,
    /// Charge-injection offset (volts), one entry per column.
    pub inject: Box<[f64]>,
    /// Stuck-at cells (sparse, ascending), encoded `col << 1 | rail`.
    /// Empty unless a fault plan with a stuck density is installed.
    pub stuck: Box<[u32]>,
    /// Leakage time constant at 20 °C (seconds), one entry per column;
    /// empty until the leak half is built.
    pub tau20: Box<[f32]>,
    /// Columns whose cell is VRT (sparse, ascending); empty until the
    /// leak half is built.
    pub vrt: Box<[u32]>,
}

/// Static per-column parameters of one sub-array, as contiguous buffers.
#[derive(Debug, Clone, PartialEq)]
pub struct ColStatics {
    /// Sense-amplifier input-referred offset (volts).
    pub offset: Box<[f64]>,
    /// Temperature coefficient of the sense offset (V per °C).
    pub temp_coeff: Box<[f64]>,
    /// Whether the column is wired as anti-cells.
    pub anti: Box<[bool]>,
    /// Raw Half-m closure asymmetry (volts), before the metastability
    /// roll-off applied at close time. Empty until the sub-array's first
    /// Half-m close ([`MaterializeCache::ensure_halfm_asym`]).
    pub halfm_asym: Box<[f64]>,
}

/// Key of one cached decay-factor vector: `(bank, sub, row, dt bits,
/// scale bits)`.
type DecayKey = (usize, usize, usize, u64, u64);

/// Lazy, seed-keyed cache of materialized silicon statics for one chip.
#[derive(Debug, Clone, Default)]
pub struct MaterializeCache {
    seed: u64,
    cols: HashMap<(usize, usize), Box<ColStatics>>,
    weights: HashMap<(usize, usize, usize), Box<[f32]>>,
    rows: HashMap<(usize, usize, usize), Box<RowStatics>>,
    /// Final sense thresholds per sub-array, tagged by environment.
    sense_th: HashMap<(usize, usize), Box<SenseThresholds>>,
    /// Per-column sense-flip fault rates per sub-array.
    flip_rates: HashMap<(usize, usize), Box<[f64]>>,
    /// Decay-factor vectors: `exp(-dt / (tau20[col] * scale))` per
    /// column.
    decay: HashMap<DecayKey, Box<[f64]>>,
    /// Lane scratch of the sampler's slice passes, reused by every miss.
    lanes: LaneScratch,
    /// Standard-normal scratch for the buffers stored narrower than
    /// `f64`.
    z: Vec<f64>,
    /// Full identity of the chip that donated this cache (stamped by
    /// `Chip::take_cache`). The buffers are pure in the *whole* chip
    /// configuration — group profile, analog parameters, and geometry,
    /// not just the die seed — so adoption across chips must compare
    /// all of it. `None` for a cache that never left its chip.
    donor: Option<ChipConfig>,
}

impl MaterializeCache {
    /// An empty cache keyed to `seed` (normally the owning chip's die
    /// seed).
    pub fn new(seed: u64) -> Self {
        MaterializeCache {
            seed,
            ..MaterializeCache::default()
        }
    }

    /// The seed the cached buffers were built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Re-keys the cache to `seed`, keeping any still-valid buffers.
    /// Returns the number of materialized buffers retained — nonzero
    /// only when the new owner shares the previous owner's die seed, in
    /// which case every buffer is reusable as-is (they are pure in the
    /// seed). This is the fleet cache-sharing entry point: callers
    /// credit the return value to [`ModelPerf::cache_share_hits`].
    pub fn adopt(&mut self, seed: u64) -> u64 {
        if seed != self.seed {
            self.seed = seed;
            self.clear_buffers();
            return 0;
        }
        (self.cols.len()
            + self.weights.len()
            + self.rows.len()
            + self.sense_th.len()
            + self.flip_rates.len()
            + self.decay.len()) as u64
    }

    /// Stamps the donating chip's full configuration; donations are
    /// only adopted wholesale by a chip with an identical one.
    pub(crate) fn stamp_donor(&mut self, config: ChipConfig) {
        self.donor = Some(config);
    }

    /// Whether this cache was donated by a chip configured exactly as
    /// `config` (same group, seed, geometry, and analog parameters).
    pub(crate) fn donor_is(&self, config: &ChipConfig) -> bool {
        self.donor.as_ref() == Some(config)
    }

    /// Drops every seed-keyed buffer. Used when a donated cache
    /// crosses a boundary the seed key alone cannot express — a chip
    /// with a fault plan armed, whose stuck/weak-cell statics fold the
    /// plan into the materialized buffers.
    pub fn clear_buffers(&mut self) {
        self.cols.clear();
        self.weights.clear();
        self.rows.clear();
        self.sense_th.clear();
        self.flip_rates.clear();
        self.decay.clear();
    }

    /// Drops every stale buffer if `silicon` belongs to a different die
    /// than the cached one.
    fn sync_seed(&mut self, silicon: &Silicon) {
        let seed = silicon.sampler().seed();
        if seed != self.seed {
            self.adopt(seed);
        }
    }

    /// Builds (on miss) the per-column statics of one sub-array, except
    /// the Half-m asymmetry, which only a Half-m close reads.
    pub fn ensure_cols(
        &mut self,
        silicon: &Silicon,
        perf: &mut ModelPerf,
        bank: usize,
        sub: usize,
        cols: usize,
    ) {
        self.sync_seed(silicon);
        if self.cols.contains_key(&(bank, sub)) {
            perf.cache_hits += 1;
            return;
        }
        perf.cache_misses += 1;
        let (sampler, params) = (silicon.sampler(), silicon.params());
        let lead = [bank as u64, sub as u64];
        let mut offset = vec![0.0; cols];
        sampler.fill_normal(
            ParamId::SenseOffset,
            &lead,
            silicon.profile().sense_offset_mean.value(),
            params.sense_offset_sigma.value(),
            &mut offset,
            &mut self.lanes,
        );
        let mut temp_coeff = vec![0.0; cols];
        sampler.fill_normal(
            ParamId::SenseTempCoeff,
            &lead,
            0.0,
            params.sense_temp_coeff_sigma,
            &mut temp_coeff,
            &mut self.lanes,
        );
        let anti = sampler
            .bernoulli_lanes(ParamId::Polarity, &lead, params.anti_cell_fraction, cols)
            .collect();
        self.cols.insert(
            (bank, sub),
            Box::new(ColStatics {
                offset: offset.into(),
                temp_coeff: temp_coeff.into(),
                anti,
                halfm_asym: Box::default(),
            }),
        );
    }

    /// The per-column statics of a sub-array; call
    /// [`MaterializeCache::ensure_cols`] first.
    ///
    /// # Panics
    ///
    /// Panics when the buffer has not been ensured.
    pub fn cols(&self, bank: usize, sub: usize) -> &ColStatics {
        self.cols
            .get(&(bank, sub))
            .expect("ensure_cols before cols")
    }

    /// Ensures a sub-array's column statics including the Half-m
    /// asymmetry. The asymmetry is a deferred fill of the same buffer,
    /// so it counts no extra hit or miss.
    pub fn ensure_halfm_asym(
        &mut self,
        silicon: &Silicon,
        perf: &mut ModelPerf,
        bank: usize,
        sub: usize,
        cols: usize,
    ) {
        self.ensure_cols(silicon, perf, bank, sub, cols);
        let statics = self.cols.get_mut(&(bank, sub)).expect("cols just ensured");
        if !statics.halfm_asym.is_empty() {
            return;
        }
        let mut asym = vec![0.0; cols];
        silicon.sampler().fill_normal(
            ParamId::HalfmAsymmetry,
            &[bank as u64, sub as u64],
            0.0,
            silicon.params().halfm_asym_sigma.value(),
            &mut asym,
            &mut self.lanes,
        );
        statics.halfm_asym = asym.into();
    }

    /// Builds (on miss) the share weights of one activation-role slot.
    pub fn ensure_weights(
        &mut self,
        silicon: &Silicon,
        perf: &mut ModelPerf,
        bank: usize,
        sub: usize,
        slot: usize,
        cols: usize,
    ) {
        self.sync_seed(silicon);
        if self.weights.contains_key(&(bank, sub, slot)) {
            perf.cache_hits += 1;
            return;
        }
        perf.cache_misses += 1;
        let mean = silicon
            .profile()
            .row_weight_means
            .get(slot)
            .copied()
            .unwrap_or(1.0);
        let z = head(&mut self.z, cols);
        silicon.sampler().fill_normal(
            ParamId::RowShareWeight,
            &[bank as u64, sub as u64, slot as u64],
            mean,
            silicon.params().share_weight_sigma,
            z,
            &mut self.lanes,
        );
        let w = z.iter().map(|&w| w.max(0.05) as f32).collect();
        self.weights.insert((bank, sub, slot), w);
    }

    /// The share weights of one slot; call
    /// [`MaterializeCache::ensure_weights`] first.
    ///
    /// # Panics
    ///
    /// Panics when the buffer has not been ensured.
    pub fn weights(&self, bank: usize, sub: usize, slot: usize) -> &[f32] {
        self.weights
            .get(&(bank, sub, slot))
            .expect("ensure_weights before weights")
    }

    /// Builds (on miss) the share half of one row's per-cell statics:
    /// capacitance, charge injection and the stuck list. The leak half
    /// waits for [`MaterializeCache::ensure_decay_factors`].
    pub fn ensure_row(
        &mut self,
        silicon: &Silicon,
        perf: &mut ModelPerf,
        bank: usize,
        sub: usize,
        row: usize,
        cols: usize,
    ) {
        self.sync_seed(silicon);
        if self.rows.contains_key(&(bank, sub, row)) {
            perf.cache_hits += 1;
            return;
        }
        perf.cache_misses += 1;
        let (sampler, params) = (silicon.sampler(), silicon.params());
        let lead = [bank as u64, sub as u64, row as u64];
        let weak = weak_plan(silicon);
        let z = head(&mut self.z, cols);
        sampler.fill_normal(
            ParamId::CellCapacitance,
            &lead,
            1.0,
            params.cell_cap_rel_sigma,
            z,
            &mut self.lanes,
        );
        // Same clamp and weak factor, in the same order, as
        // `Silicon::cell_capacitance`.
        let cap = z
            .iter()
            .enumerate()
            .map(|(col, &rel)| {
                let cap = params.cell_cap * rel.clamp(0.5, 1.5);
                match weak {
                    Some(p) if p.is_weak(bank, sub, row, col) => cap * p.config().weak_cap_factor,
                    _ => cap,
                }
                .value() as f32
            })
            .collect();
        let mut inject = vec![0.0; cols];
        sampler.fill_normal(
            ParamId::CellInject,
            &lead,
            0.0,
            params.cell_inject_sigma.value(),
            &mut inject,
            &mut self.lanes,
        );
        let stuck = (0..cols)
            .filter_map(|col| {
                silicon
                    .stuck_at(bank, sub, row, col)
                    .map(|rail| (col as u32) << 1 | rail as u32)
            })
            .collect();
        self.rows.insert(
            (bank, sub, row),
            Box::new(RowStatics {
                cap,
                inject: inject.into(),
                stuck,
                tau20: Box::default(),
                vrt: Box::default(),
            }),
        );
    }

    /// Fills the leak half (`tau20`, `vrt`) of an ensured row, once. A
    /// deferred fill of the same buffer: it counts no hit or miss.
    fn fill_leak_half(&mut self, silicon: &Silicon, bank: usize, sub: usize, row: usize) {
        let statics = self
            .rows
            .get_mut(&(bank, sub, row))
            .expect("ensure_row before the leak half");
        if !statics.tau20.is_empty() {
            return;
        }
        let (sampler, params) = (silicon.sampler(), silicon.params());
        let cols = statics.cap.len();
        let lead = [bank as u64, sub as u64, row as u64];
        let weak = weak_plan(silicon);
        let z = head(&mut self.z, cols);
        sampler.fill_lognormal(
            ParamId::LeakageTau,
            &lead,
            params.leak_tau_median.value(),
            params.leak_tau_sigma_ln,
            z,
            &mut self.lanes,
        );
        // Same group scale and weak factor, in the same order, as
        // `Silicon::leak_tau`.
        let scale = silicon.profile().leak_tau_scale;
        statics.tau20 = z
            .iter()
            .enumerate()
            .map(|(col, &tau)| {
                let scaled = tau * scale;
                (match weak {
                    Some(p) if p.is_weak(bank, sub, row, col) => {
                        scaled * p.config().weak_tau_factor
                    }
                    _ => scaled,
                }) as f32
            })
            .collect();
        statics.vrt = sampler
            .bernoulli_lanes(ParamId::VrtFlag, &lead, params.vrt_fraction, cols)
            .enumerate()
            .filter_map(|(col, vrt)| vrt.then_some(col as u32))
            .collect();
    }

    /// The per-cell statics of a row; call
    /// [`MaterializeCache::ensure_row`] first.
    ///
    /// # Panics
    ///
    /// Panics when the buffer has not been ensured.
    pub fn row(&self, bank: usize, sub: usize, row: usize) -> &RowStatics {
        self.rows
            .get(&(bank, sub, row))
            .expect("ensure_row before row")
    }

    /// Builds (on miss or environment change) the final per-column sense
    /// comparison thresholds of one sub-array.
    ///
    /// The threshold folds the per-column offset, its temperature
    /// coefficient, the supply coupling, and the anti-cell mirror into
    /// one value, using exactly the expression (and evaluation order)
    /// the sense kernel used per column — so the cached value is
    /// bit-identical to computing it at sense time. The buffer is tagged
    /// with the `(temperature, vdd)` bits it was built under and rebuilt
    /// when either moves (environment-excursion windows), which costs no
    /// more than the per-event evaluation it replaces.
    pub fn ensure_sense_thresholds(
        &mut self,
        silicon: &Silicon,
        perf: &mut ModelPerf,
        bank: usize,
        sub: usize,
        cols: usize,
        env: &Environment,
    ) {
        self.ensure_cols(silicon, perf, bank, sub, cols);
        let temp_bits = env.temperature_c.to_bits();
        let vdd_bits = env.vdd.value().to_bits();
        if let Some(t) = self.sense_th.get(&(bank, sub)) {
            if t.temp_bits == temp_bits && t.vdd_bits == vdd_bits {
                perf.cache_hits += 1;
                return;
            }
        }
        perf.cache_misses += 1;
        let params = silicon.params();
        let statics = self.cols.get(&(bank, sub)).expect("cols just ensured");
        let vdd = env.vdd.value();
        let half = params.half_vdd(env.vdd).value();
        let temp_delta = env.temperature_c - 20.0;
        let vdd_shift = params.sense_vdd_coupling * (vdd - params.vdd_nominal.value());
        let mut th = Vec::with_capacity(cols);
        for col in 0..cols {
            let temp_shift = statics.temp_coeff[col] * temp_delta;
            let true_th = half + statics.offset[col] + temp_shift + vdd_shift;
            th.push(if statics.anti[col] {
                vdd - true_th
            } else {
                true_th
            });
        }
        self.sense_th.insert(
            (bank, sub),
            Box::new(SenseThresholds {
                temp_bits,
                vdd_bits,
                th: th.into(),
            }),
        );
    }

    /// The final sense thresholds of a sub-array; call
    /// [`MaterializeCache::ensure_sense_thresholds`] first.
    ///
    /// # Panics
    ///
    /// Panics when the buffer has not been ensured.
    pub fn sense_thresholds(&self, bank: usize, sub: usize) -> &[f64] {
        &self
            .sense_th
            .get(&(bank, sub))
            .expect("ensure_sense_thresholds before sense_thresholds")
            .th
    }

    /// Builds (on miss) the per-column sense-flip fault rates of one
    /// sub-array. Only meaningful while a fault plan with a positive
    /// flip rate is installed; fault-config changes rebuild the whole
    /// cache, so stale rates cannot survive a plan swap.
    pub fn ensure_flip_rates(
        &mut self,
        silicon: &Silicon,
        perf: &mut ModelPerf,
        bank: usize,
        sub: usize,
        cols: usize,
    ) {
        self.sync_seed(silicon);
        if self.flip_rates.contains_key(&(bank, sub)) {
            perf.cache_hits += 1;
            return;
        }
        perf.cache_misses += 1;
        let plan = silicon.faults().expect("flip rates need a fault plan");
        let rates: Vec<f64> = (0..cols)
            .map(|col| plan.sense_flip_rate(bank, sub, col))
            .collect();
        self.flip_rates.insert((bank, sub), rates.into());
    }

    /// The per-column sense-flip rates of a sub-array; call
    /// [`MaterializeCache::ensure_flip_rates`] first.
    ///
    /// # Panics
    ///
    /// Panics when the buffer has not been ensured.
    pub fn flip_rates(&self, bank: usize, sub: usize) -> &[f64] {
        self.flip_rates
            .get(&(bank, sub))
            .expect("ensure_flip_rates before flip_rates")
    }

    /// Builds (on miss) the decay-factor vector of one row for one
    /// `(dt, scale)` pair: `factor[col] = exp(-dt / (tau20[col] * scale))`,
    /// evaluated with the exact per-column argument expression the
    /// leakage kernel used inline — so `v * factor[col]` is
    /// bit-identical to the stepped form. Event cadences repeat the same
    /// `dt` across trials, which turns a row's whole leakage pass into
    /// one cached-vector multiply.
    #[allow(clippy::too_many_arguments)]
    pub fn ensure_decay_factors(
        &mut self,
        silicon: &Silicon,
        perf: &mut ModelPerf,
        bank: usize,
        sub: usize,
        row: usize,
        cols: usize,
        dt: f64,
        scale: f64,
    ) {
        self.ensure_row(silicon, perf, bank, sub, row, cols);
        self.fill_leak_half(silicon, bank, sub, row);
        let key = (bank, sub, row, dt.to_bits(), scale.to_bits());
        if self.decay.contains_key(&key) {
            perf.decay_vec_hits += 1;
            return;
        }
        if self.decay.len() >= DECAY_VEC_CAP {
            self.decay.clear();
        }
        let tau20 = &self
            .rows
            .get(&(bank, sub, row))
            .expect("row just ensured")
            .tau20;
        let factors: Box<[f64]> = tau20[..cols]
            .iter()
            .map(|&tau20| {
                // Same argument shape as the stepped leakage kernel: the
                // tau product must stay in exactly this form — hoisting
                // a reciprocal changes the rounding and breaks stdout
                // byte-identity.
                let tau = tau20 as f64 * scale;
                (-dt / tau).exp()
            })
            .collect();
        self.decay.insert(key, factors);
    }

    /// The decay-factor vector of a row for one `(dt, scale)` pair; call
    /// [`MaterializeCache::ensure_decay_factors`] first.
    ///
    /// # Panics
    ///
    /// Panics when the buffer has not been ensured.
    pub fn decay_factors(
        &self,
        bank: usize,
        sub: usize,
        row: usize,
        dt: f64,
        scale: f64,
    ) -> &[f64] {
        self.decay
            .get(&(bank, sub, row, dt.to_bits(), scale.to_bits()))
            .expect("ensure_decay_factors before decay_factors")
    }
}

/// The installed fault plan when it marks weak cells.
fn weak_plan(silicon: &Silicon) -> Option<&FaultPlan> {
    silicon.faults().filter(|p| p.config().weak_density > 0.0)
}

/// The first `n` lanes of a reusable scratch buffer, grown on demand.
fn head(buf: &mut Vec<f64>, n: usize) -> &mut [f64] {
    if buf.len() < n {
        buf.resize(n, 0.0);
    }
    &mut buf[..n]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::DeviceParams;
    use crate::vendor::GroupId;

    fn silicon(seed: u64) -> Silicon {
        Silicon::new(seed, DeviceParams::default(), GroupId::B.profile())
    }

    const COLS: usize = 128;

    #[test]
    fn same_seed_rebuilds_identical_buffers() {
        let s = silicon(42);
        let mut perf = ModelPerf::default();
        let mut a = MaterializeCache::new(42);
        let mut b = MaterializeCache::new(42);
        a.ensure_row(&s, &mut perf, 0, 1, 7, COLS);
        b.ensure_row(&s, &mut perf, 0, 1, 7, COLS);
        assert_eq!(a.row(0, 1, 7), b.row(0, 1, 7));
        a.ensure_cols(&s, &mut perf, 0, 1, COLS);
        b.ensure_cols(&s, &mut perf, 0, 1, COLS);
        assert_eq!(a.cols(0, 1), b.cols(0, 1));
        a.ensure_weights(&s, &mut perf, 0, 1, 2, COLS);
        b.ensure_weights(&s, &mut perf, 0, 1, 2, COLS);
        assert_eq!(a.weights(0, 1, 2), b.weights(0, 1, 2));
    }

    /// Compares every materialized buffer of `(bank, sub, row)` and its
    /// sub-array against the per-cell `Silicon` oracle, bit for bit.
    fn assert_matches_oracle(cache: &MaterializeCache, s: &Silicon, cols: usize, what: &str) {
        let (bank, sub, row) = (1, 2, 5);
        let r = cache.row(bank, sub, row);
        let c = cache.cols(bank, sub);
        for col in 0..cols {
            let cap = s.cell_capacitance(bank, sub, row, col).value() as f32;
            assert_eq!(r.cap[col].to_bits(), cap.to_bits(), "{what}: cap {col}");
            let tau = s.leak_tau(bank, sub, row, col).value() as f32;
            assert_eq!(r.tau20[col].to_bits(), tau.to_bits(), "{what}: tau20 {col}");
            let inject = s.cell_inject(bank, sub, row, col).value();
            assert_eq!(
                r.inject[col].to_bits(),
                inject.to_bits(),
                "{what}: inject {col}"
            );
            let offset = s.sense_offset(bank, sub, col).value();
            assert_eq!(
                c.offset[col].to_bits(),
                offset.to_bits(),
                "{what}: offset {col}"
            );
            let coeff = s.sense_temp_coeff(bank, sub, col);
            assert_eq!(
                c.temp_coeff[col].to_bits(),
                coeff.to_bits(),
                "{what}: coeff {col}"
            );
            assert_eq!(
                c.anti[col],
                s.is_anti_column(bank, sub, col),
                "{what}: anti {col}"
            );
            let asym = s.halfm_asymmetry(bank, sub, col).value();
            assert_eq!(
                c.halfm_asym[col].to_bits(),
                asym.to_bits(),
                "{what}: asym {col}"
            );
            for slot in 0..4 {
                let w = s.share_weight(bank, sub, slot, col) as f32;
                let got = cache.weights(bank, sub, slot)[col];
                assert_eq!(got.to_bits(), w.to_bits(), "{what}: weight {slot}/{col}");
            }
        }
        let vrt: Vec<u32> = (0..cols)
            .filter(|&col| s.is_vrt(bank, sub, row, col))
            .map(|col| col as u32)
            .collect();
        assert_eq!(r.vrt.as_ref(), vrt.as_slice(), "{what}: vrt");
        let stuck: Vec<u32> = (0..cols)
            .filter_map(|col| {
                s.stuck_at(bank, sub, row, col)
                    .map(|rail| (col as u32) << 1 | rail as u32)
            })
            .collect();
        assert_eq!(r.stuck.as_ref(), stuck.as_slice(), "{what}: stuck");
    }

    #[test]
    fn buffers_match_direct_silicon_calls() {
        use crate::faults::{FaultConfig, FaultPlan};
        let (bank, sub, row) = (1, 2, 5);
        for group in GroupId::ALL {
            for cols in [1usize, 63, 64, 4097] {
                for faults in [false, true] {
                    let seed = 0xC0FFEE ^ cols as u64;
                    let mut s = Silicon::new(seed, DeviceParams::default(), group.profile());
                    if faults {
                        s.set_faults(Some(FaultPlan::new(
                            seed,
                            FaultConfig {
                                stuck_density: 0.05,
                                weak_density: 0.1,
                                ..FaultConfig::none()
                            },
                        )));
                    }
                    let what = format!("{group} cols {cols} faults {faults}");
                    let mut misses = Vec::new();
                    for share_first in [true, false] {
                        let mut perf = ModelPerf::default();
                        let mut cache = MaterializeCache::new(seed);
                        let share = |cache: &mut MaterializeCache, perf: &mut ModelPerf| {
                            cache.ensure_row(&s, perf, bank, sub, row, cols);
                            cache.ensure_cols(&s, perf, bank, sub, cols);
                            for slot in 0..4 {
                                cache.ensure_weights(&s, perf, bank, sub, slot, cols);
                            }
                        };
                        if share_first {
                            share(&mut cache, &mut perf);
                            assert!(cache.row(bank, sub, row).tau20.is_empty());
                            assert!(cache.cols(bank, sub).halfm_asym.is_empty());
                        }
                        cache.ensure_decay_factors(&s, &mut perf, bank, sub, row, cols, 0.064, 1.0);
                        cache.ensure_halfm_asym(&s, &mut perf, bank, sub, cols);
                        if !share_first {
                            share(&mut cache, &mut perf);
                        }
                        assert_matches_oracle(&cache, &s, cols, &what);
                        misses.push(perf.cache_misses);
                    }
                    // Deferred fills are part of their buffer: the order
                    // the halves are read in moves no counter.
                    assert_eq!(misses, [6, 6], "{what}");
                }
            }
        }
    }

    #[test]
    fn different_seeds_produce_different_buffers() {
        let mut perf = ModelPerf::default();
        let mut a = MaterializeCache::new(1);
        let mut b = MaterializeCache::new(2);
        a.ensure_decay_factors(&silicon(1), &mut perf, 0, 0, 0, COLS, 0.064, 1.0);
        b.ensure_decay_factors(&silicon(2), &mut perf, 0, 0, 0, COLS, 0.064, 1.0);
        assert_ne!(a.row(0, 0, 0).inject, b.row(0, 0, 0).inject);
        assert_ne!(a.row(0, 0, 0).tau20, b.row(0, 0, 0).tau20);
    }

    #[test]
    fn hit_and_miss_counters_increment() {
        let s = silicon(7);
        let mut perf = ModelPerf::default();
        let mut cache = MaterializeCache::new(7);
        cache.ensure_row(&s, &mut perf, 0, 0, 3, COLS);
        assert_eq!((perf.cache_misses, perf.cache_hits), (1, 0));
        cache.ensure_row(&s, &mut perf, 0, 0, 3, COLS);
        assert_eq!((perf.cache_misses, perf.cache_hits), (1, 1));
        cache.ensure_row(&s, &mut perf, 0, 0, 4, COLS);
        assert_eq!((perf.cache_misses, perf.cache_hits), (2, 1));
        cache.ensure_cols(&s, &mut perf, 0, 0, COLS);
        cache.ensure_cols(&s, &mut perf, 0, 0, COLS);
        assert_eq!((perf.cache_misses, perf.cache_hits), (3, 2));
    }

    #[test]
    fn stuck_list_matches_fault_plan() {
        use crate::faults::{FaultConfig, FaultPlan};
        let mut s = silicon(31);
        let plan = FaultPlan::new(
            31,
            FaultConfig {
                stuck_density: 0.1,
                ..FaultConfig::none()
            },
        );
        s.set_faults(Some(plan.clone()));
        let mut perf = ModelPerf::default();
        let mut cache = MaterializeCache::new(31);
        cache.ensure_row(&s, &mut perf, 0, 0, 2, COLS);
        let row = cache.row(0, 0, 2);
        let expected: Vec<u32> = (0..COLS)
            .filter_map(|c| {
                plan.stuck_at(0, 0, 2, c)
                    .map(|rail| (c as u32) << 1 | rail as u32)
            })
            .collect();
        assert!(!expected.is_empty(), "no stuck cell at density 0.1");
        assert_eq!(row.stuck.as_ref(), expected.as_slice());
    }

    #[test]
    fn fault_free_rows_have_empty_stuck_list() {
        let mut perf = ModelPerf::default();
        let mut cache = MaterializeCache::new(7);
        cache.ensure_row(&silicon(7), &mut perf, 0, 0, 3, COLS);
        assert!(cache.row(0, 0, 3).stuck.is_empty());
    }

    #[test]
    fn seed_mismatch_drops_stale_buffers() {
        let mut perf = ModelPerf::default();
        let mut cache = MaterializeCache::new(1);
        cache.ensure_row(&silicon(1), &mut perf, 0, 0, 0, COLS);
        let old = cache.row(0, 0, 0).clone();
        // A different die asks the same cache: stale buffers must go.
        cache.ensure_row(&silicon(2), &mut perf, 0, 0, 0, COLS);
        assert_eq!(cache.seed(), 2);
        assert_ne!(*cache.row(0, 0, 0), old);
        assert_eq!(perf.cache_misses, 2);
    }
}
