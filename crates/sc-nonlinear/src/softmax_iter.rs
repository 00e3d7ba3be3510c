//! Iterative approximate softmax — ASCEND's softmax block (§IV-B).
//!
//! Division and exponentiation are hostile to SC; ASCEND sidesteps both with
//! the iterative approximation of \[22\] (Algorithm 1 in the paper): for
//! `y(t) = softmax(t·x)`, `y(0) = 1/m` is known and `y'(t)` is expressible
//! in `y(t)`, so `k` Euler steps march from the uniform vector to softmax
//! using only multiply, accumulate, and division by the *constant* `k` —
//! which in thermometer SC is a scale-factor edit, free in hardware.
//!
//! The circuit (paper Fig. 5) has `m` compute units (MUL① `z_i = x_i·y_i`,
//! MUL② `y_i·sum(z)`, two re-scaling blocks) and two BSNs (sum(z) and the
//! final accumulate). [`IterSoftmaxBlock`] simulates it bit-accurately with
//! every quantization the hardware makes: input/state thermometer grids
//! (`Bx`/`αx`, `By`/`αy`), the `s1`/`s2` sub-sampling of `sum(z)` and
//! `y·sum(z)`, and saturating truncation back to the `By` state register.
//!
//! In deterministic thermometer SC every stream length, scale, tap phase
//! and tap position of that circuit depends only on the configuration;
//! only the levels vary per row. [`IterSoftmaxBlock::new`] therefore
//! compiles the block once into an integer program — closed-form `s1`/`s2`
//! sub-samples and a `ones → level` table per `÷k` re-scaling leg — which
//! the design-space sweeps and the SC inference engine run,
//! allocation-free in [`IterSoftmaxBlock::run_in_place`].
//! [`IterSoftmaxBlock::run`] pushes real bitstreams through the circuit
//! and stays the reference the program is property-tested against.
//!
//! Lane `i`'s update reads only its input level `x_i`, its state `y_i` and
//! the shared `sum(z)`, and every lane starts at `y⁰ = 1/m`, so lanes at
//! one input level follow one trajectory. The program therefore sorts a
//! row into a histogram over the `Bx + 1` input levels (`O(m)`), runs the
//! `k` steps once per level present with `sum(z) = Σ_l c_l·x_l·y_l`
//! (exact in `i64`, so equal to the per-lane sum), and scatters each
//! level's output back to its lanes (`O(m)`). An `f32` row is encoded by
//! a comparator bank: `Bx` thresholds fixed at compile time, with no
//! divide or round per element.
//!
//! Feasibility is closed-form too ([`IterSoftmaxConfig::check_rates`]).
//! The only circuit steps that can reject a configuration that passes
//! [`IterSoftmaxConfig::validate`] are the two sub-samplers: `s1` must
//! divide the `m·Bx·By/2`-bit `sum(z)` and leave an even, non-zero width
//! `W`, and `s2` must do the same for the `By·W/2`-bit `y·sum(z)`. That
//! rule depends on the stream lengths alone, not on `αx` or `αy`, and it
//! gives the same verdict as a bit-level run on a zero row (tested over
//! the Fig. 8 grid and the SC engine's rate ladder).

use sc_core::encoding::Thermometer;
use sc_core::rescale::{align_scale, resample_tap, rescale, truncate_center, RescaleMode};
use sc_core::{bsn, ttmul, ScError, ThermStream};

/// Longest internal stream (in bits), and so longest compiled table, a
/// block may have. Lengths are computed overflow-free, since a
/// configuration may come from an artifact. 2^20 is 256× the longest
/// Fig. 8 stream (`w_len` = 4096 at m = 128, Bx = 4, By = 16, s1 = 8).
pub const MAX_STREAM_LEN: usize = 1 << 20;

/// Most iterations `k` a block may run. Every row costs `k` steps, so an
/// unbounded `k` read from an artifact could stall a forward for good;
/// 1024 is far above the paper's `k` ≤ 4 (Fig. 8).
pub const MAX_ITERATIONS: usize = 1024;

/// Float-exact Algorithm 1: `k` Euler steps from the uniform vector.
///
/// This is the *algorithmic* approximation the circuit then quantizes; the
/// gap between this and [`crate::ref_fn::softmax`] is the iteration error,
/// the rest of the block's error is quantization.
///
/// ```
/// use sc_nonlinear::softmax_iter::iterative_softmax_float;
/// use sc_nonlinear::ref_fn;
///
/// let x = [0.5, -0.2, 0.1, 0.9];
/// let approx = iterative_softmax_float(&x, 8);
/// let exact = ref_fn::softmax(&x);
/// for (a, e) in approx.iter().zip(exact.iter()) {
///     assert!((a - e).abs() < 0.05);
/// }
/// ```
pub fn iterative_softmax_float(x: &[f64], k: usize) -> Vec<f64> {
    let m = x.len();
    if m == 0 {
        return Vec::new();
    }
    let mut y = vec![1.0 / m as f64; m];
    for _ in 0..k {
        let z: Vec<f64> = x.iter().zip(y.iter()).map(|(xi, yi)| xi * yi).collect();
        let sum_z: f64 = z.iter().sum();
        for i in 0..m {
            y[i] += (z[i] - y[i] * sum_z) / k as f64;
        }
    }
    y
}

/// Parameters of the SC softmax block (paper Table II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterSoftmaxConfig {
    /// Row-vector length `m` (64 for the paper's Table IV).
    pub m: usize,
    /// Iteration count `k`.
    pub k: usize,
    /// Input BSL `Bx`.
    pub bx: usize,
    /// Input scale `αx`.
    pub ax: f64,
    /// State BSL `By`.
    pub by: usize,
    /// State scale `αy`.
    pub ay: f64,
    /// Sub-sample rate of `sum(z)` (`s1`).
    pub s1: usize,
    /// Sub-sample rate of `y·sum(z)` (`s2`).
    pub s2: usize,
    /// Rounding behaviour of the re-scaling blocks.
    pub mode: RescaleMode,
}

impl Default for IterSoftmaxConfig {
    fn default() -> Self {
        // The paper's recommended configuration [By, s1, s2, k] = [8,32,8,3]
        // with Bx = 4.
        IterSoftmaxConfig {
            m: 64,
            k: 3,
            bx: 4,
            ax: 1.0,
            by: 8,
            ay: 0.0625,
            s1: 32,
            s2: 8,
            mode: RescaleMode::Round,
        }
    }
}

impl IterSoftmaxConfig {
    /// Basic sanity checks (positivity, parity, `k` ≤ [`MAX_ITERATIONS`]),
    /// including that every scale the datapath derives from `αx`, `αy`,
    /// `s1`, `s2` and `k` is finite and positive.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParam`] describing the first violation.
    pub fn validate(&self) -> Result<(), ScError> {
        let fail = |name: &'static str, reason: String| ScError::InvalidParam { name, reason };
        if self.m == 0 {
            return Err(fail("m", "row length must be non-zero".into()));
        }
        if self.k == 0 || self.k > MAX_ITERATIONS {
            let reason = format!(
                "iteration count {} is outside [1, {MAX_ITERATIONS}]",
                self.k
            );
            return Err(fail("k", reason));
        }
        for (name, v) in [("bx", self.bx), ("by", self.by)] {
            if v == 0 || v % 2 != 0 {
                return Err(fail(
                    name,
                    format!("BSL must be even and non-zero, got {v}"),
                ));
            }
        }
        for (name, v) in [("ax", self.ax), ("ay", self.ay)] {
            if !(v.is_finite() && v > 0.0) {
                return Err(fail(
                    name,
                    format!("scale must be finite and positive, got {v}"),
                ));
            }
        }
        if self.s1 == 0 || self.s2 == 0 {
            return Err(fail("s1/s2", "sub-sample rates must be non-zero".into()));
        }
        // The scales of z, sum(z) after s1, y·sum(z) before and after s2,
        // and both ÷k legs, in `Program::compile`'s order of operations.
        let k = self.k as f64;
        let z = self.ax * self.ay;
        let sum = z * self.s1 as f64;
        let w = self.ay * sum * self.s2 as f64;
        for v in [z, sum, self.ay * sum, w, z / k, w / k] {
            if !(v.is_finite() && v > 0.0) {
                let reason = format!("derived datapath scale {v} is not finite and positive");
                return Err(fail("ax/ay", reason));
            }
        }
        Ok(())
    }

    /// Closed-form feasibility of the two sub-samplers, the only steps of
    /// the circuit that can reject a configuration that passes
    /// [`IterSoftmaxConfig::validate`]: `s1` must divide the `m·Bx·By/2`-bit
    /// `sum(z)` and leave an even, non-zero width `W`, and `s2` must do the
    /// same for the `By·W/2`-bit `y·sum(z)`. These are exactly
    /// [`rescale`]'s conditions; the rule reads stream lengths only, never
    /// `αx` or `αy`. Both stream lengths must also fit [`MAX_STREAM_LEN`].
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParam`] naming the first rate that fails
    /// or the first stream that overflows or exceeds the cap.
    pub fn check_rates(&self) -> Result<(), ScError> {
        let sum_len = self
            .m
            .checked_mul(self.bx)
            .and_then(|n| n.checked_mul(self.by));
        let sum_sub = sub_sampled_len("s1", sum_len.map(|n| n / 2), self.s1)?;
        sub_sampled_len("s2", self.by.checked_mul(sum_sub).map(|n| n / 2), self.s2)?;
        Ok(())
    }
}

/// The width [`rescale`] leaves when it sub-samples a `len`-bit stream by
/// `s`, if `len` neither overflowed (`None`) nor exceeds [`MAX_STREAM_LEN`]
/// and `s` divides it into an even, non-zero width.
fn sub_sampled_len(name: &'static str, len: Option<usize>, s: usize) -> Result<usize, ScError> {
    let fail = |reason| Err(ScError::InvalidParam { name, reason });
    let Some(len) = len.filter(|&n| n <= MAX_STREAM_LEN) else {
        return fail(format!(
            "the stream rate {s} samples exceeds the {MAX_STREAM_LEN}-bit cap"
        ));
    };
    match len.checked_div(s) {
        Some(out) if len.is_multiple_of(s) && out > 0 && out.is_multiple_of(2) => Ok(out),
        _ => fail(format!(
            "rate {s} does not divide {len} bits into an even, non-zero width"
        )),
    }
}

/// Internal datapath stream lengths of one softmax compute unit (per
/// iteration), consumed by the `sc-hw` cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterSoftmaxDims {
    /// `z_i = x_i·y_i` product length (`Bx·By/2`).
    pub z_len: usize,
    /// BSN① output length (`m·z_len`).
    pub sum_len: usize,
    /// `sum(z)` after the `s1` sub-sample.
    pub sum_sub_len: usize,
    /// MUL② product length before the `s2` sub-sample.
    pub w_len: usize,
    /// MUL② product after the `s2` sub-sample.
    pub w_sub_len: usize,
    /// The `z/k` term after re-scaling onto `αy`.
    pub zk_len: usize,
    /// The `y·sum(z)/k` term after re-scaling onto `αy`.
    pub wk_len: usize,
    /// BSN② input width (`By + zk_len + wk_len`).
    pub acc_len: usize,
}

/// Bit-accurate simulator of the Fig. 5 softmax circuit block.
///
/// Construction compiles the circuit into an integer program that every
/// level-domain entry point ([`IterSoftmaxBlock::run_levels`],
/// [`IterSoftmaxBlock::run_in_place`], [`IterSoftmaxBlock::mae_levels`])
/// executes; [`IterSoftmaxBlock::run`] pushes real bitstreams through the
/// same circuit and is the reference the program is tested against.
#[derive(Debug, Clone, PartialEq)]
pub struct IterSoftmaxBlock {
    config: IterSoftmaxConfig,
    in_codec: Thermometer,
    state_codec: Thermometer,
    program: Program,
}

impl IterSoftmaxBlock {
    /// Builds the block, verifying the configuration is self-consistent
    /// (every internal re-scale must be feasible — this is what makes some
    /// of the 2916 DSE grid points "impossible designs"), and compiles it.
    ///
    /// Feasibility is the closed-form rule of
    /// [`IterSoftmaxConfig::check_rates`], checked before any table is
    /// built: a zero-width `s2` leg would otherwise reach the tap schedule
    /// with an empty stream. It gives the same verdict as a bit-level run
    /// on a zero row; [`IterSoftmaxBlock::run`] stays the reference.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParam`] if validation or the sub-sample
    /// rate check fails, or a `÷k` re-scaled stream would exceed
    /// [`MAX_STREAM_LEN`].
    pub fn new(config: IterSoftmaxConfig) -> Result<Self, ScError> {
        config.validate()?;
        config.check_rates()?;
        let in_codec = Thermometer::new(config.bx, config.ax)?;
        let state_codec = Thermometer::new(config.by, config.ay)?;
        let program = Program::compile(&config)?;
        Ok(IterSoftmaxBlock {
            config,
            in_codec,
            state_codec,
            program,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &IterSoftmaxConfig {
        &self.config
    }

    /// Input codec (`Bx`, `αx`).
    pub fn input_codec(&self) -> &Thermometer {
        &self.in_codec
    }

    /// State codec (`By`, `αy`).
    pub fn state_codec(&self) -> &Thermometer {
        &self.state_codec
    }

    /// Runs the bit-level circuit on a logit row, returning the decoded
    /// softmax approximation.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::LengthMismatch`] if `x.len() != m`, and
    /// [`ScError::InvalidParam`] if an internal re-scale is infeasible for
    /// this configuration.
    pub fn run(&self, x: &[f64]) -> Result<Vec<f64>, ScError> {
        run_bits(&self.config, &self.in_codec, &self.state_codec, x)
    }

    /// Level-domain path: the compiled program, identical to
    /// [`IterSoftmaxBlock::run`] (property-tested) at a fraction of the
    /// cost. Use for design-space sweeps.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::LengthMismatch`] if `x.len() != m`.
    pub fn run_levels(&self, x: &[f64]) -> Result<Vec<f64>, ScError> {
        self.check_len(x.len())?;
        let p = &self.program;
        let mut row = SoftmaxLevels::default();
        row.sort(p.input.levels(), x.iter().map(|&v| p.input.level(v)));
        p.iterate(&mut row.levels);
        Ok(row
            .lane
            .iter()
            .map(|&l| p.decode(row.levels[l].y))
            .collect())
    }

    /// Runs the compiled program on an `f32` logit row in place — the SC
    /// engine's attention softmax. Each input's level is counted off the
    /// comparator bank, which equals encoding `v as f64`, and each level's
    /// output is decoded once as the `f64` result cast to `f32` and
    /// written to its lanes, so the row ends up exactly as
    /// [`IterSoftmaxBlock::run_levels`] would leave it. `levels` is reused
    /// across calls and nothing is allocated once it has grown to `m`
    /// lanes and `Bx + 1` levels.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::LengthMismatch`] if `row.len() != m`.
    pub fn run_in_place(&self, row: &mut [f32], levels: &mut SoftmaxLevels) -> Result<(), ScError> {
        self.check_len(row.len())?;
        let p = &self.program;
        levels.sort(p.input.levels(), row.iter().map(|&v| p.input.level_f32(v)));
        p.iterate(&mut levels.levels);
        for level in levels.levels.iter_mut().filter(|level| level.count > 0) {
            level.out = p.decode(level.y) as f32;
        }
        for (dst, &l) in row.iter_mut().zip(&levels.lane) {
            *dst = levels.levels[l].out;
        }
        Ok(())
    }

    fn check_len(&self, len: usize) -> Result<(), ScError> {
        if len != self.config.m {
            return Err(ScError::LengthMismatch {
                left: len,
                right: self.config.m,
            });
        }
        Ok(())
    }

    /// The internal datapath widths (stream lengths) — the numbers the
    /// hardware cost model needs. Lengths are data-independent, fixed when
    /// the block is compiled.
    pub fn dims(&self) -> IterSoftmaxDims {
        self.program.dims
    }

    /// Mean absolute error per element of the bit-level circuit against
    /// exact softmax, averaged over a batch of logit rows.
    ///
    /// # Errors
    ///
    /// Propagates [`IterSoftmaxBlock::run`] errors; rejects an empty batch.
    pub fn mae(&self, rows: &[Vec<f64>]) -> Result<f64, ScError> {
        mae_of(rows, |row| self.run(row))
    }

    /// MAE via the compiled program; equal to [`IterSoftmaxBlock::mae`].
    ///
    /// # Errors
    ///
    /// Propagates [`IterSoftmaxBlock::run_levels`] errors; rejects an empty
    /// batch.
    pub fn mae_levels(&self, rows: &[Vec<f64>]) -> Result<f64, ScError> {
        mae_of(rows, |row| self.run_levels(row))
    }
}

/// Mean absolute error of `run` against exact softmax over `rows`.
fn mae_of(
    rows: &[Vec<f64>],
    run: impl Fn(&[f64]) -> Result<Vec<f64>, ScError>,
) -> Result<f64, ScError> {
    if rows.is_empty() {
        return Err(ScError::InvalidParam {
            name: "rows",
            reason: "need at least one test vector".into(),
        });
    }
    let mut total = 0.0;
    let mut count = 0usize;
    for row in rows {
        let got = run(row)?;
        let want = crate::ref_fn::softmax(row);
        for (g, w) in got.iter().zip(want.iter()) {
            total += (g - w).abs();
            count += 1;
        }
    }
    Ok(total / count as f64)
}

/// The Fig. 5 circuit on real bitstreams.
fn run_bits(
    c: &IterSoftmaxConfig,
    in_codec: &Thermometer,
    state_codec: &Thermometer,
    x: &[f64],
) -> Result<Vec<f64>, ScError> {
    if x.len() != c.m {
        return Err(ScError::LengthMismatch {
            left: x.len(),
            right: c.m,
        });
    }
    // Encode inputs once (clamped to the αx·Bx/2 range).
    let xs: Vec<ThermStream> = x.iter().map(|&v| in_codec.encode(v)).collect();
    // y⁰ = 1/m on the state grid.
    let y0 = state_codec.encode(1.0 / c.m as f64);
    let mut ys: Vec<ThermStream> = vec![y0; c.m];

    for _ in 0..c.k {
        // MUL①: z_i = x_i · y_i (truth-table, exact).
        let zs: Vec<ThermStream> = xs
            .iter()
            .zip(ys.iter())
            .map(|(xi, yi)| ttmul::mul(xi, yi))
            .collect::<Result<_, _>>()?;
        // BSN①: sum(z), then sub-sample by s1.
        let z_refs: Vec<&ThermStream> = zs.iter().collect();
        let sum_z = bsn::add(&z_refs)?;
        let sum_z = rescale(&sum_z, c.s1, c.mode)?;

        let mut next = Vec::with_capacity(c.m);
        for (yi, zi) in ys.iter().zip(zs.iter()) {
            // MUL②: w_i = y_i · sum(z), then sub-sample by s2.
            let wi = ttmul::mul(yi, &sum_z)?;
            let wi = rescale(&wi, c.s2, c.mode)?;

            // ÷k by scale folding (free), then re-scale onto αy.
            let zk = zi.with_scale(zi.scale() / c.k as f64)?;
            let zk = align_scale(&zk, c.ay, c.mode)?;
            let wk = wi.with_scale(wi.scale() / c.k as f64)?;
            let wk = align_scale(&wk, c.ay, c.mode)?;

            // BSN②: y_i + z_i/k − w_i/k, saturate back into By bits.
            let acc = bsn::add(&[yi, &zk, &wk.negate()])?;
            next.push(truncate_center(&acc, c.by)?);
        }
        ys = next;
    }
    Ok(ys.iter().map(ThermStream::value).collect())
}

/// Reusable level buffers for [`IterSoftmaxBlock::run_in_place`]: each
/// lane's input level, and one [`Level`] per input level, indexed
/// `x + Bx/2` (`Bx + 1` entries).
#[derive(Debug, Clone, Default)]
pub struct SoftmaxLevels {
    /// Input level index of each lane.
    lane: Vec<usize>,
    levels: Vec<Level>,
}

/// One input level of a row: how many lanes hold it, their shared state
/// and its decoded output.
#[derive(Debug, Clone, Copy, Default)]
struct Level {
    count: i64,
    y: i64,
    out: f32,
}

impl SoftmaxLevels {
    /// Buffers pre-sized for rows of length `m`; the per-level buffer
    /// grows to `Bx + 1` on first use.
    pub fn with_capacity(m: usize) -> Self {
        SoftmaxLevels {
            lane: Vec::with_capacity(m),
            ..SoftmaxLevels::default()
        }
    }

    /// Sorts a row into `width` levels: records each lane's level index
    /// and counts the lanes per level.
    fn sort(&mut self, width: usize, lanes: impl Iterator<Item = usize>) {
        self.levels.clear();
        self.levels.resize(width, Level::default());
        self.lane.clear();
        for l in lanes {
            self.levels[l].count += 1;
            self.lane.push(l);
        }
    }
}

/// `rescale` by `s` of a sorted `len`-bit stream, on levels: tapping bit
/// `phase` of every `s`-group keeps `#{i < len/s : i·s + phase < ones}`
/// ones, which is a closed form in `ones`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SubSample {
    in_half: i64,
    s: i64,
    phase: i64,
    out_len: i64,
}

impl SubSample {
    fn new(len: usize, s: usize, mode: RescaleMode) -> Self {
        SubSample {
            in_half: (len / 2) as i64,
            s: s as i64,
            phase: mode.phase(s) as i64,
            out_len: (len / s) as i64,
        }
    }

    fn out_len(&self) -> usize {
        self.out_len as usize
    }

    /// Output level for input level `q` (`s = 1` is the identity).
    fn apply(&self, q: i64) -> i64 {
        let ones = q + self.in_half;
        let count = if ones <= self.phase {
            0
        } else {
            ((ones - self.phase - 1) / self.s + 1).min(self.out_len)
        };
        count - self.out_len / 2
    }
}

/// `align_scale` of a sorted `len`-bit stream at `scale` onto `target`,
/// tabulated: the output length and the output level for every input
/// `ones ∈ 0..=len`.
///
/// Output tap `j` reads input bit `resample_tap(j)`, which is a one iff
/// that position is below `ones`. Tap positions are non-decreasing in
/// `j`, so the count is non-decreasing in `ones` and one sweep over both
/// builds the whole table in `O(len + out_len)`.
fn align_table(
    len: usize,
    scale: f64,
    target: f64,
    mode: RescaleMode,
) -> Result<(usize, Vec<i64>), ScError> {
    let half = (scale * len as f64 / target / 2.0).round();
    if half > (MAX_STREAM_LEN / 2) as f64 {
        let reason = format!("a ÷k re-scale needs {} bits, over the cap", 2.0 * half);
        return Err(ScError::InvalidParam {
            name: "ax/ay",
            reason,
        });
    }
    let out_len = (half as usize * 2).max(2);
    let out_half = (out_len / 2) as i64;
    let mut count = 0;
    let table = (0..=len)
        .map(|ones| {
            while count < out_len && resample_tap(count, len, out_len, mode) < ones {
                count += 1;
            }
            count as i64 - out_half
        })
        .collect();
    Ok((out_len, table))
}

/// Thermometer level of `x` at `scale`: rounded, then clamped to
/// `±half` (`Thermometer::encode`).
fn quantize(x: f64, scale: f64, half: f64) -> i64 {
    (x / scale).round().clamp(-half, half) as i64
}

/// Position of a non-NaN `v` in the order of `f32::total_cmp`, in which
/// `-0.0` sits just below `+0.0`.
fn f32_key(v: f32) -> i64 {
    let b = v.to_bits() as i32;
    i64::from(b ^ ((b >> 31) as u32 >> 1) as i32)
}

/// The `f32` at position `key` of [`f32_key`]'s order.
fn f32_at(key: i64) -> f32 {
    let b = key as i32;
    f32::from_bits((b ^ ((b >> 31) as u32 >> 1) as i32) as u32)
}

/// The input grid `αx`/`Bx` as an encoder to level indices `x + Bx/2`,
/// with a comparator bank for `f32` inputs: threshold `j` (of `Bx`) is the
/// least `f32` `v` with `quantize(v as f64, αx, Bx/2) ≥ j + 1 − Bx/2`.
/// `quantize` is monotone in `v`, so an input's level is `−Bx/2` plus the
/// number of thresholds at or below it, with no divide or round.
#[derive(Debug, Clone, PartialEq)]
struct InputEncoder {
    ax: f64,
    half: usize,
    thresholds: Vec<f32>,
}

impl InputEncoder {
    /// Finds each threshold by bisection between `-inf` (level `−Bx/2`)
    /// and `+inf` (level `Bx/2`), the ends of the non-NaN `f32`s in
    /// [`f32_key`]'s order. No threshold is `+0.0`: `-0.0` has the same
    /// level and sorts below it, so `<=` agrees with that order at zero.
    fn new(ax: f64, half: usize) -> Self {
        let h = half as f64;
        let thresholds = (0..2 * half)
            .map(|j| {
                let target = (j + 1) as i64 - half as i64;
                let (mut lo, mut hi) = (f32_key(f32::NEG_INFINITY), f32_key(f32::INFINITY));
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    if quantize(f64::from(f32_at(mid)), ax, h) >= target {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                f32_at(hi)
            })
            .collect();
        InputEncoder {
            ax,
            half,
            thresholds,
        }
    }

    /// Number of input levels, `Bx + 1`.
    fn levels(&self) -> usize {
        2 * self.half + 1
    }

    /// Level index of logit `v`.
    fn level(&self, v: f64) -> usize {
        (quantize(v, self.ax, self.half as f64) + self.half as i64) as usize
    }

    /// Level index of the `f32` logit `v`, equal to `level(v as f64)`: the
    /// thresholds at or below `v` in the upper half of the bank, less
    /// those above it in the lower half. A NaN compares false both ways
    /// and lands on level 0, where `quantize`'s saturating cast puts it.
    fn level_f32(&self, v: f32) -> usize {
        let (lower, upper) = self.thresholds.split_at(self.half);
        let above = lower.iter().filter(|&&t| v < t).count();
        let below = upper.iter().filter(|&&t| t <= v).count();
        self.half - above + below
    }
}

/// The block compiled to integers. Every stream length, scale, tap phase
/// and tap position of the `k`-step circuit depends only on the
/// configuration; only the levels vary per row. The program keeps the
/// encode/decode grids (with the input comparator bank), the closed-form
/// `s1` sub-sample, and one `ones → level` table per `÷k` re-scaling leg
/// (`z/k`, and `y·sum(z)/k` with the `s2` sub-sample folded in). A row
/// costs `O(m)` to encode and scatter, and each of the `k` steps a handful
/// of integer operations per input level present.
#[derive(Debug, Clone, PartialEq)]
struct Program {
    k: usize,
    /// Input grid `αx`/`Bx`.
    input: InputEncoder,
    /// State scale `αy`, clamp `By/2` and initial level `y⁰ = 1/m`.
    ay: f64,
    y_half: i64,
    y0: i64,
    /// `sum(z)` → `s1`.
    sum_sub: SubSample,
    /// `z/k` onto `αy`, indexed by `z + z_half`.
    z_half: i64,
    zk: Vec<i64>,
    /// `y·sum(z)` → `s2` → `÷k` onto `αy`, indexed by `w + w_half`
    /// (before `s2`).
    w_half: i64,
    wk: Vec<i64>,
    dims: IterSoftmaxDims,
}

impl Program {
    /// Compiles a configuration that passed `validate` and `check_rates`
    /// (so no stream length below overflows or exceeds the cap). Lengths
    /// and scales follow the bit-level ops: a truth-table multiply halves
    /// the product of the lengths and multiplies the scales, a BSN adds
    /// lengths at a shared scale, a sub-sample by `s` divides the length
    /// and multiplies the scale by `s`.
    fn compile(c: &IterSoftmaxConfig) -> Result<Program, ScError> {
        let y_half = (c.by / 2) as i64;
        let y0 = quantize(1.0 / c.m as f64, c.ay, y_half as f64);
        // MUL① then BSN① and s1.
        let z_len = c.bx * c.by / 2;
        let z_scale = c.ax * c.ay;
        let sum_len = c.m * z_len;
        let sum_sub = SubSample::new(sum_len, c.s1, c.mode);
        let sum_scale = z_scale * c.s1 as f64;
        // MUL② then s2.
        let w_len = c.by * sum_sub.out_len() / 2;
        let w_sub = SubSample::new(w_len, c.s2, c.mode);
        let w_scale = c.ay * sum_scale * c.s2 as f64;
        // ÷k by scale folding, then align onto αy.
        let k = c.k as f64;
        let (zk_len, zk) = align_table(z_len, z_scale / k, c.ay, c.mode)?;
        let (wk_len, wk_sub) = align_table(w_sub.out_len(), w_scale / k, c.ay, c.mode)?;
        // Fold s2 into the y·sum(z)/k table: one entry per MUL② level.
        let w_half = (w_len / 2) as i64;
        let w_sub_half = (w_sub.out_len() / 2) as i64;
        let wk = (-w_half..=w_half)
            .map(|w| wk_sub[(w_sub.apply(w) + w_sub_half) as usize])
            .collect();
        Ok(Program {
            k: c.k,
            input: InputEncoder::new(c.ax, c.bx / 2),
            ay: c.ay,
            y_half,
            y0,
            sum_sub,
            z_half: (z_len / 2) as i64,
            zk,
            w_half,
            wk,
            dims: IterSoftmaxDims {
                z_len,
                sum_len,
                sum_sub_len: sum_sub.out_len(),
                w_len,
                w_sub_len: w_sub.out_len(),
                zk_len,
                wk_len,
                acc_len: c.by + zk_len + wk_len,
            },
        })
    }

    /// Value of state level `q`.
    fn decode(&self, q: i64) -> f64 {
        self.ay * q as f64
    }

    /// Runs the `k` steps from `y⁰` on the level histogram `levels.sort`
    /// built, leaving each level's state in its `y`. Each lane's update
    /// reads only its own `x` and `y` and `sum(z)` of the previous state,
    /// and all lanes start at `y⁰`, so the lanes of one level share one
    /// state: each step updates every level present once, and
    /// `sum(z) = Σ_l c_l·x_l·y_l` equals the per-lane sum exactly.
    fn iterate(&self, levels: &mut [Level]) {
        let x = |l: usize| l as i64 - self.input.half as i64;
        for level in levels.iter_mut() {
            level.y = self.y0;
        }
        for _ in 0..self.k {
            // MUL① + BSN①, then s1. An absent level adds nothing.
            let sum_z = (levels.iter().enumerate())
                .map(|(l, level)| level.count * x(l) * level.y)
                .sum::<i64>();
            let sum_z = self.sum_sub.apply(sum_z);
            for (l, level) in levels.iter_mut().enumerate() {
                if level.count == 0 {
                    continue;
                }
                // MUL②; s2 and both ÷k legs by table; BSN② and saturation.
                let y = level.y;
                let zk = self.zk[(x(l) * y + self.z_half) as usize];
                let wk = self.wk[(y * sum_z + self.w_half) as usize];
                level.y = (y + zk - wk).clamp(-self.y_half, self.y_half);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ref_fn;
    use proptest::prelude::*;

    #[test]
    fn float_iteration_converges_with_k() {
        let x = [1.0, -0.5, 0.3, 0.0, 0.9, -1.2];
        let exact = ref_fn::softmax(&x);
        let err = |k: usize| -> f64 {
            iterative_softmax_float(&x, k)
                .iter()
                .zip(exact.iter())
                .map(|(a, e)| (a - e).abs())
                .sum::<f64>()
        };
        assert!(err(16) < err(4), "k=16: {} k=4: {}", err(16), err(4));
        assert!(err(16) < 0.02);
    }

    #[test]
    fn float_iteration_preserves_simplex_approximately() {
        let x = [2.0, -1.0, 0.5, 0.2];
        for k in [2, 4, 8] {
            let y = iterative_softmax_float(&x, k);
            let s: f64 = y.iter().sum();
            assert!((s - 1.0).abs() < 0.05, "k={k} sum={s}");
        }
        assert!(iterative_softmax_float(&[], 4).is_empty());
    }

    fn small_block(m: usize) -> IterSoftmaxBlock {
        IterSoftmaxBlock::new(IterSoftmaxConfig {
            m,
            k: 2,
            bx: 4,
            ax: 1.0,
            by: 16,
            ay: 1.0 / 8.0,
            s1: 2,
            s2: 8,
            mode: RescaleMode::Round,
        })
        .expect("feasible test configuration")
    }

    #[test]
    fn block_outputs_rough_softmax_shape() {
        let block = small_block(4);
        let x = vec![2.0, -2.0, 0.0, 0.0];
        let y = block.run(&x).unwrap();
        // Largest logit must win; order preserved for the clear gap.
        let argmax = y
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(argmax, 0, "y = {y:?}");
        assert!(y[0] > y[1], "y = {y:?}");
    }

    #[test]
    fn block_rejects_wrong_row_length() {
        let block = small_block(4);
        assert!(matches!(
            block.run(&[0.0; 3]).unwrap_err(),
            ScError::LengthMismatch { left: 3, right: 4 }
        ));
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let bad = |f: fn(&mut IterSoftmaxConfig)| {
            let mut c = IterSoftmaxConfig::default();
            f(&mut c);
            c.validate().is_err()
        };
        assert!(bad(|c| c.m = 0));
        assert!(bad(|c| c.k = 0));
        assert!(bad(|c| c.bx = 3));
        assert!(bad(|c| c.by = 0));
        assert!(bad(|c| c.ax = -1.0));
        assert!(bad(|c| c.ay = f64::NAN));
        assert!(bad(|c| c.s1 = 0));
        assert!(bad(|c| c.s2 = 0));
    }

    #[test]
    fn infeasible_rescale_is_reported_at_construction() {
        // s1 that does not divide m·Bx·By/2 → construction must fail, not
        // panic at run time.
        let cfg = IterSoftmaxConfig {
            m: 3,
            k: 2,
            bx: 4,
            ax: 1.0,
            by: 4,
            ay: 0.25,
            s1: 7,
            s2: 2,
            mode: RescaleMode::Round,
        };
        assert!(IterSoftmaxBlock::new(cfg).is_err());
    }

    /// Asserts `cfg` is refused with a typed error at both gates.
    fn assert_refused(cfg: IterSoftmaxConfig) {
        let err = IterSoftmaxBlock::new(cfg).unwrap_err();
        assert!(matches!(err, ScError::InvalidParam { .. }), "got {err:?}");
    }

    #[test]
    fn an_overflowing_stream_length_is_a_typed_error() {
        // m·Bx·By = 2^80 overflows 64 bits.
        let cfg = IterSoftmaxConfig {
            m: 1 << 40,
            bx: 1 << 20,
            by: 1 << 20,
            s1: 1,
            s2: 1,
            ..Default::default()
        };
        assert!(matches!(
            cfg.check_rates(),
            Err(ScError::InvalidParam { .. })
        ));
        assert_refused(cfg);
    }

    #[test]
    fn a_table_longer_than_the_cap_is_refused_before_it_is_built() {
        // m = 2^44, Bx = By = 2 passes the divisibility rule but asks for
        // 2^45-bit streams: a 2^45-entry `y·sum(z)/k` table.
        let cfg = IterSoftmaxConfig {
            m: 1 << 44,
            bx: 2,
            by: 2,
            s1: 1,
            s2: 1,
            ..Default::default()
        };
        assert!(matches!(
            cfg.check_rates(),
            Err(ScError::InvalidParam { .. })
        ));
        assert_refused(cfg);
        // Exactly at the cap stays feasible.
        let at_cap = IterSoftmaxConfig {
            m: MAX_STREAM_LEN / 2,
            bx: 2,
            by: 2,
            s1: 2,
            s2: 2,
            ..cfg
        };
        assert!(at_cap.check_rates().is_ok());
        let over = IterSoftmaxConfig {
            m: MAX_STREAM_LEN / 2 + 1,
            ..at_cap
        };
        assert!(over.check_rates().is_err());
    }

    #[test]
    fn a_huge_input_scale_cannot_size_a_rescale_table() {
        // αx = 1e300 passes `validate` (every derived scale is finite), but
        // the z/k leg re-scaled onto αy would need ~1e300 bits.
        let cfg = IterSoftmaxConfig {
            m: 4,
            bx: 2,
            by: 2,
            ax: 1e300,
            ay: 1.0,
            s1: 1,
            s2: 1,
            ..Default::default()
        };
        cfg.validate().unwrap();
        cfg.check_rates().unwrap();
        assert_refused(cfg);
    }

    #[test]
    fn an_iteration_count_beyond_the_cap_is_refused() {
        let at_cap = IterSoftmaxConfig {
            k: MAX_ITERATIONS,
            ..Default::default()
        };
        assert!(at_cap.validate().is_ok());
        assert_refused(IterSoftmaxConfig {
            k: MAX_ITERATIONS + 1,
            ..at_cap
        });
        assert_refused(IterSoftmaxConfig {
            k: 1 << 40,
            ..at_cap
        });
    }

    /// The 2916-point Fig. 8 grid, as `crates/bench/src/bin/fig8_dse.rs`
    /// builds it.
    fn fig8_grid() -> Vec<IterSoftmaxConfig> {
        let mut grid = Vec::new();
        for bx in [2usize, 4] {
            for m in [64usize, 128] {
                for by in [4usize, 8, 16] {
                    for k in [2usize, 3, 4] {
                        for s1 in [8usize, 32, 128] {
                            for s2 in [2usize, 8, 16] {
                                for ax_mult in [0.5f64, 1.0, 2.0] {
                                    for ay_mult in [0.5f64, 1.0, 2.0] {
                                        grid.push(IterSoftmaxConfig {
                                            m,
                                            k,
                                            bx,
                                            ax: ax_mult * 4.0 / bx as f64,
                                            by,
                                            ay: ay_mult / m as f64,
                                            s1,
                                            s2,
                                            mode: RescaleMode::Round,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        grid
    }

    #[test]
    fn closed_form_feasibility_matches_the_bit_level_dry_run() {
        let mut configs = fig8_grid();
        assert_eq!(configs.len(), 2916);
        // The SC engine's rate search from [s1, s2] = [32, 8] at its row
        // lengths, every (s1, s2) it can visit.
        for m in [5usize, 10, 17, 24, 64, 65, 72] {
            for s1 in [32usize, 16, 8, 4, 2, 1] {
                for s2 in [8usize, 4, 2, 1] {
                    configs.push(IterSoftmaxConfig {
                        m,
                        s1,
                        s2,
                        ..IterSoftmaxConfig::default()
                    });
                }
            }
        }
        // Scales that under- or overflow inside the datapath.
        for (ax, ay) in [(1e-200, 1e-200), (1e200, 1e200), (1e150, 1e150)] {
            configs.push(IterSoftmaxConfig {
                ax,
                ay,
                ..IterSoftmaxConfig::default()
            });
        }
        let (mut grid_feasible, mut zero_width) = (0, 0);
        for (i, cfg) in configs.into_iter().enumerate() {
            let dry = Thermometer::new(cfg.bx, cfg.ax).and_then(|x| {
                let y = Thermometer::new(cfg.by, cfg.ay)?;
                run_bits(&cfg, &x, &y, &vec![0.0; cfg.m])
            });
            let closed = IterSoftmaxBlock::new(cfg);
            assert_eq!(
                closed.is_ok(),
                dry.is_ok(),
                "{cfg:?}: closed form {closed:?}"
            );
            grid_feasible += usize::from(i < 2916 && dry.is_ok());
            // A leg `Program::compile` would size to zero bits: s1 passes,
            // but `By·W/2 < s2`.
            let sum_len = cfg.m * cfg.bx * cfg.by / 2;
            if sum_len.is_multiple_of(cfg.s1) && cfg.by * (sum_len / cfg.s1) / 2 < cfg.s2 {
                zero_width += 1;
            }
        }
        // As `fig8_dse` reports.
        assert_eq!(grid_feasible, 2673);
        assert!(zero_width > 0, "no zero-width s2 leg exercised");
    }

    #[test]
    fn paper_recommended_config_is_feasible() {
        // [By, s1, s2, k] = [8, 32, 8, 3] with Bx = 4, m = 64 (§VI-B3).
        let block = IterSoftmaxBlock::new(IterSoftmaxConfig::default()).unwrap();
        let x: Vec<f64> = (0..64).map(|i| ((i as f64) * 0.37).sin()).collect();
        let y = block.run(&x).unwrap();
        assert_eq!(y.len(), 64);
        // Order of the extremes must be preserved.
        let exact = ref_fn::softmax(&x);
        let argmax_exact = exact
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let got_at_max = y[argmax_exact];
        assert!(
            y.iter().all(|v| *v <= got_at_max + 1e-9),
            "argmax not preserved"
        );
    }

    #[test]
    fn finer_state_grid_reduces_mae() {
        // Table IV's By sweep: By = 16 must beat By = 4 on the same inputs.
        let rows: Vec<Vec<f64>> = (0..8)
            .map(|r| {
                (0..8)
                    .map(|i| ((r * 8 + i) as f64 * 0.7).sin() * 1.5)
                    .collect()
            })
            .collect();
        let mae_for = |by: usize| -> f64 {
            IterSoftmaxBlock::new(IterSoftmaxConfig {
                m: 8,
                k: 3,
                bx: 4,
                ax: 1.0,
                by,
                ay: 2.0 / by as f64,
                s1: 4,
                s2: 4,
                mode: RescaleMode::Round,
            })
            .expect("feasible")
            .mae(&rows)
            .expect("runs")
        };
        let coarse = mae_for(4);
        let fine = mae_for(16);
        assert!(fine < coarse, "fine {fine} coarse {coarse}");
    }

    #[test]
    fn uniform_input_is_near_fixed_point() {
        // softmax(0,…,0) = 1/m and the iteration should stay there up to
        // quantization.
        let block = small_block(8);
        let y = block.run(&[0.0; 8]).unwrap();
        for v in &y {
            assert!(
                (v - 0.125).abs() <= 2.0 * block.state_codec().scale(),
                "y = {y:?}"
            );
        }
    }

    #[test]
    fn dims_are_consistent() {
        let block = IterSoftmaxBlock::new(IterSoftmaxConfig::default()).unwrap();
        let d = block.dims();
        let c = block.config();
        assert_eq!(d.z_len, c.bx * c.by / 2);
        assert_eq!(d.sum_len, c.m * d.z_len);
        assert_eq!(d.sum_sub_len, d.sum_len / c.s1);
        assert_eq!(d.w_len, c.by * d.sum_sub_len / 2);
        assert_eq!(d.w_sub_len, d.w_len / c.s2);
        assert_eq!(d.acc_len, c.by + d.zk_len + d.wk_len);
        assert!(d.zk_len >= 2 && d.wk_len >= 2);
    }

    #[test]
    fn mae_rejects_empty_batch() {
        let block = small_block(4);
        assert!(block.mae(&[]).is_err());
    }

    #[test]
    fn level_sim_matches_bit_sim_exactly() {
        // The compiled program must agree bit-for-bit (in decoded values)
        // with the bit-accurate simulator across configurations and inputs.
        let configs = [
            IterSoftmaxConfig::default(),
            IterSoftmaxConfig {
                m: 8,
                k: 2,
                bx: 4,
                ax: 0.5,
                by: 16,
                ay: 0.0625,
                s1: 4,
                s2: 8,
                mode: RescaleMode::Floor,
            },
            IterSoftmaxConfig {
                m: 16,
                k: 4,
                bx: 2,
                ax: 1.0,
                by: 8,
                ay: 0.125,
                s1: 8,
                s2: 2,
                mode: RescaleMode::Ceil,
            },
        ];
        for cfg in configs {
            let block = IterSoftmaxBlock::new(cfg).unwrap();
            for seed in 0..4u64 {
                let x: Vec<f64> = (0..cfg.m)
                    .map(|i| ((i as f64 + seed as f64 * 3.7) * 0.59).sin() * 1.8)
                    .collect();
                let bits = block.run(&x).unwrap();
                let levels = block.run_levels(&x).unwrap();
                for (b, l) in bits.iter().zip(levels.iter()) {
                    assert_eq!(b.to_bits(), l.to_bits(), "cfg {cfg:?}: {b} vs {l}");
                }
            }
        }
    }

    #[test]
    fn in_place_f32_run_matches_run_levels() {
        // The paper's m = 64, and the engine's m = 65 with its degraded
        // rates; one level buffer serves both.
        let configs = [
            IterSoftmaxConfig::default(),
            IterSoftmaxConfig {
                m: 65,
                ax: 0.75,
                ay: 0.125,
                s1: 8,
                s2: 4,
                ..Default::default()
            },
        ];
        let specials = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::from_bits(1),
            f32::MAX,
        ];
        let mut levels = SoftmaxLevels::default();
        for cfg in configs {
            let block = IterSoftmaxBlock::new(cfg).unwrap();
            let clamp = (cfg.ax * (cfg.bx / 2) as f64) as f32;
            for seed in 0..6u64 {
                // Amplitudes from half the input clamp to three times it.
                let amp = clamp * (0.5 + seed as f32 * 0.5);
                let mut row: Vec<f32> = (0..cfg.m)
                    .map(|i| ((i as f32 + seed as f32 * 2.3) * 0.41).sin() * amp)
                    .collect();
                if seed % 2 == 1 {
                    for (v, s) in row.iter_mut().step_by(7).zip(specials) {
                        *v = s;
                    }
                }
                let wide: Vec<f64> = row.iter().map(|&v| v as f64).collect();
                let want: Vec<f32> = block
                    .run_levels(&wide)
                    .unwrap()
                    .iter()
                    .map(|&v| v as f32)
                    .collect();
                let mut got = row.clone();
                block.run_in_place(&mut got, &mut levels).unwrap();
                assert_eq!(got, want, "m = {}, seed {seed}", cfg.m);
            }
        }
        let block = IterSoftmaxBlock::new(configs[0]).unwrap();
        assert!(matches!(
            block.run_in_place(&mut [0.0; 3], &mut levels).unwrap_err(),
            ScError::LengthMismatch { left: 3, right: 64 }
        ));
    }

    /// Input scales: the twin test's `αx = 2·range/Bx`, for `range` in
    /// `[0.5, 4)`, at the given `Bx`, and scales far outside it (the
    /// engine's `1e-3` floor, and extremes the `f32` inputs under- or
    /// overflow against).
    fn encoder_scales(bx: usize) -> Vec<f64> {
        let mut scales: Vec<f64> = [0.5, 0.75, 1.0, 1.3, 2.0, 2.5, 3.7, 3.999]
            .iter()
            .map(|range| 2.0 * range / bx as f64)
            .collect();
        scales.extend([1e-3, 1e-30, 1e-300, 1e30, 1e300, 0.1, 1.0 / 3.0]);
        scales
    }

    #[test]
    fn comparator_bank_is_exact_at_its_thresholds_and_special_values() {
        let specials = [
            0.0f32,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x007F_FFFF),
            -f32::from_bits(0x007F_FFFF),
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
        ];
        for bx in [2usize, 4, 8, 16] {
            for ax in encoder_scales(bx) {
                let enc = InputEncoder::new(ax, bx / 2);
                assert_eq!(enc.thresholds.len(), bx);
                assert!(
                    enc.thresholds.windows(2).all(|t| t[0] <= t[1]),
                    "ax {ax}: {:?}",
                    enc.thresholds
                );
                assert_eq!(enc.level_f32(f32::NAN), bx / 2, "NaN sits on level 0");
                let mut probes = specials.to_vec();
                for &t in &enc.thresholds {
                    let key = f32_key(t);
                    probes.extend([t, f32_at(key - 1), f32_at(key + 1)]);
                }
                for v in probes {
                    let want = enc.level(f64::from(v));
                    assert_eq!(enc.level_f32(v), want, "Bx {bx}, ax {ax:e}, v {v:e}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The comparator bank encodes every `f32` as `quantize` does from
        /// `v as f64`: any bit pattern (mostly far from the grid, NaNs
        /// included) and a draw within three times the input clamp.
        #[test]
        fn comparator_bank_matches_quantize(
            bits in any::<u32>(),
            near in -3.0f64..3.0,
            bx in prop::sample::select(vec![2usize, 4, 8, 16]),
            range in 0.5f64..4.0,
            exp in prop::sample::select(vec![0i32, 0, 0, -20, 20, -140, 100]),
        ) {
            let ax = 2.0 * range / bx as f64 * 2f64.powi(exp);
            let enc = InputEncoder::new(ax, bx / 2);
            let near = (near * ax * (bx / 2) as f64) as f32;
            for v in [f32::from_bits(bits), near] {
                prop_assert_eq!(enc.level_f32(v), enc.level(f64::from(v)), "Bx {}, ax {:e}, v {:e}", bx, ax, v);
            }
        }
    }
}
