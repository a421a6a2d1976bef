//! Session specifications: which field to visualise, with which synthesis
//! configuration, on which virtual machine.
//!
//! A [`SessionSpec`] is everything a frame of a session depends on. Frames
//! are a pure function of `(field, config, frame index)` — steering replaces
//! the field and restarts the session's animation clock — which is what
//! makes the frame cache key `(field hash, config hash, seed, frame index)`
//! sound: a steered-back session re-requests keys it already populated and
//! skips synthesis entirely.

use flowfield::analytic::{DoubleGyre, Saddle, Shear, TaylorGreen, Uniform, Vortex};
use flowfield::{Rect, Vec2, VectorField};
use spotnoise::config::{SamplingMode, SynthesisConfig};
use spotnoise::hash::StableHasher;
use spotnoise::json::Json;

/// The unit domain all service sessions run on.
pub fn service_domain() -> Rect {
    Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0))
}

/// An analytic vector field a session can be bound (or steered) to.
///
/// The variants mirror `flowfield::analytic`; parameters are plain numbers
/// so a spec can be carried in a request body and content-hashed for the
/// frame cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldSpec {
    /// Constant flow.
    Uniform {
        /// Velocity x component.
        vx: f64,
        /// Velocity y component.
        vy: f64,
    },
    /// Solid-body rotation around a centre.
    Vortex {
        /// Angular velocity.
        omega: f64,
        /// Centre x.
        cx: f64,
        /// Centre y.
        cy: f64,
    },
    /// Horizontal shear.
    Shear {
        /// Shear rate.
        rate: f64,
    },
    /// Stagnation-point flow.
    Saddle {
        /// Strain rate.
        rate: f64,
        /// Stagnation point x.
        cx: f64,
        /// Stagnation point y.
        cy: f64,
    },
    /// The double-gyre benchmark field.
    DoubleGyre {
        /// Velocity amplitude.
        amplitude: f64,
        /// Gyre-separation oscillation amplitude.
        epsilon: f64,
        /// Oscillation frequency.
        omega: f64,
        /// Evaluation time.
        time: f64,
    },
    /// Taylor–Green cellular vortices.
    TaylorGreen {
        /// Velocity amplitude.
        amplitude: f64,
        /// Cells per axis.
        cells: f64,
    },
}

impl FieldSpec {
    /// The default session field: a unit vortex centred in the domain.
    pub fn default_vortex() -> Self {
        FieldSpec::Vortex {
            omega: 1.0,
            cx: 0.5,
            cy: 0.5,
        }
    }

    /// Instantiates the field over the service domain.
    pub fn build(&self) -> Box<dyn VectorField + Send + Sync> {
        let domain = service_domain();
        match *self {
            FieldSpec::Uniform { vx, vy } => Box::new(Uniform {
                velocity: Vec2::new(vx, vy),
                domain,
            }),
            FieldSpec::Vortex { omega, cx, cy } => Box::new(Vortex {
                omega,
                center: Vec2::new(cx, cy),
                domain,
            }),
            FieldSpec::Shear { rate } => Box::new(Shear { rate, domain }),
            FieldSpec::Saddle { rate, cx, cy } => Box::new(Saddle {
                rate,
                center: Vec2::new(cx, cy),
                domain,
            }),
            FieldSpec::DoubleGyre {
                amplitude,
                epsilon,
                omega,
                time,
            } => Box::new(DoubleGyre {
                amplitude,
                epsilon,
                omega,
                time,
                domain,
            }),
            FieldSpec::TaylorGreen { amplitude, cells } => Box::new(TaylorGreen {
                amplitude,
                cells,
                domain,
            }),
        }
    }

    /// Stable content hash of the field (kind + parameters), half of the
    /// frame-cache key.
    pub fn cache_key(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_str("FieldSpec/v1");
        match *self {
            FieldSpec::Uniform { vx, vy } => {
                h.write_str("uniform");
                h.write_f64(vx);
                h.write_f64(vy);
            }
            FieldSpec::Vortex { omega, cx, cy } => {
                h.write_str("vortex");
                h.write_f64(omega);
                h.write_f64(cx);
                h.write_f64(cy);
            }
            FieldSpec::Shear { rate } => {
                h.write_str("shear");
                h.write_f64(rate);
            }
            FieldSpec::Saddle { rate, cx, cy } => {
                h.write_str("saddle");
                h.write_f64(rate);
                h.write_f64(cx);
                h.write_f64(cy);
            }
            FieldSpec::DoubleGyre {
                amplitude,
                epsilon,
                omega,
                time,
            } => {
                h.write_str("double_gyre");
                h.write_f64(amplitude);
                h.write_f64(epsilon);
                h.write_f64(omega);
                h.write_f64(time);
            }
            FieldSpec::TaylorGreen { amplitude, cells } => {
                h.write_str("taylor_green");
                h.write_f64(amplitude);
                h.write_f64(cells);
            }
        }
        h.finish()
    }

    /// Parses a field spec from a request-body JSON object, e.g.
    /// `{"kind": "vortex", "omega": 2.0, "cx": 0.5, "cy": 0.5}`. Missing
    /// parameters fall back to sensible defaults; an unknown `kind` is an
    /// error.
    pub fn from_json(value: &Json) -> Result<FieldSpec, String> {
        let num = |key: &str, default: f64| -> Result<f64, String> {
            match value.get(key) {
                None => Ok(default),
                Some(v) => {
                    let n = v
                        .as_f64()
                        .ok_or_else(|| format!("field.{key} not a number"))?;
                    if n.is_finite() {
                        Ok(n)
                    } else {
                        Err(format!("field.{key} not finite"))
                    }
                }
            }
        };
        let kind = value
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("field.kind missing")?;
        match kind {
            "uniform" => Ok(FieldSpec::Uniform {
                vx: num("vx", 0.1)?,
                vy: num("vy", 0.0)?,
            }),
            "vortex" => Ok(FieldSpec::Vortex {
                omega: num("omega", 1.0)?,
                cx: num("cx", 0.5)?,
                cy: num("cy", 0.5)?,
            }),
            "shear" => Ok(FieldSpec::Shear {
                rate: num("rate", 1.0)?,
            }),
            "saddle" => Ok(FieldSpec::Saddle {
                rate: num("rate", 1.0)?,
                cx: num("cx", 0.5)?,
                cy: num("cy", 0.5)?,
            }),
            "double_gyre" => Ok(FieldSpec::DoubleGyre {
                amplitude: num("amplitude", 0.1)?,
                epsilon: num("epsilon", 0.0)?,
                omega: num("omega", 0.0)?,
                time: num("time", 0.0)?,
            }),
            "taylor_green" => Ok(FieldSpec::TaylorGreen {
                amplitude: num("amplitude", 1.0)?,
                cells: num("cells", 2.0)?,
            }),
            other => Err(format!("unknown field kind {other:?}")),
        }
    }

    /// Serializes the spec back to the request-body shape (echoed in
    /// session-info responses).
    pub fn to_json(&self) -> Json {
        match *self {
            FieldSpec::Uniform { vx, vy } => Json::object([
                ("kind", Json::str("uniform")),
                ("vx", Json::num(vx)),
                ("vy", Json::num(vy)),
            ]),
            FieldSpec::Vortex { omega, cx, cy } => Json::object([
                ("kind", Json::str("vortex")),
                ("omega", Json::num(omega)),
                ("cx", Json::num(cx)),
                ("cy", Json::num(cy)),
            ]),
            FieldSpec::Shear { rate } => {
                Json::object([("kind", Json::str("shear")), ("rate", Json::num(rate))])
            }
            FieldSpec::Saddle { rate, cx, cy } => Json::object([
                ("kind", Json::str("saddle")),
                ("rate", Json::num(rate)),
                ("cx", Json::num(cx)),
                ("cy", Json::num(cy)),
            ]),
            FieldSpec::DoubleGyre {
                amplitude,
                epsilon,
                omega,
                time,
            } => Json::object([
                ("kind", Json::str("double_gyre")),
                ("amplitude", Json::num(amplitude)),
                ("epsilon", Json::num(epsilon)),
                ("omega", Json::num(omega)),
                ("time", Json::num(time)),
            ]),
            FieldSpec::TaylorGreen { amplitude, cells } => Json::object([
                ("kind", Json::str("taylor_green")),
                ("amplitude", Json::num(amplitude)),
                ("cells", Json::num(cells)),
            ]),
        }
    }
}

/// Everything a session's frames depend on: the field, the synthesis
/// configuration, the virtual machine shape and the per-frame time step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionSpec {
    /// The field being visualised.
    pub field: FieldSpec,
    /// Synthesis parameters (including the seed).
    pub config: SynthesisConfig,
    /// Processors of the divide-and-conquer machine.
    pub processors: usize,
    /// Graphics pipes of the divide-and-conquer machine.
    pub pipes: usize,
    /// Advection time step between successive frames.
    pub dt: f64,
    /// Subscribe to the shared broadcast channel for this `(field, config,
    /// seed)` instead of owning a private pipeline. Deliberately **not**
    /// part of the config cache key: shared and private
    /// sessions of the same spec render identical texels and must share
    /// frame-cache entries.
    pub shared: bool,
    /// Opt out of pressure-driven quality degradation: a pinned session is
    /// never switched to footprint sampling under load (it sheds instead).
    /// Like `shared`, not part of the cache key — pinning changes *when*
    /// the service may degrade, never what a given config renders.
    pub pinned: bool,
}

impl Default for SessionSpec {
    fn default() -> Self {
        SessionSpec {
            field: FieldSpec::default_vortex(),
            config: SynthesisConfig::small_test(),
            processors: 1,
            pipes: 1,
            dt: 0.05,
            shared: false,
            pinned: false,
        }
    }
}

impl SessionSpec {
    /// Parses a session spec from a request body. An empty body yields the
    /// default spec; otherwise the body is a JSON object with optional
    /// `field`, `config`, `machine` and `dt` keys, each overriding the
    /// default piecewise.
    pub fn from_body(body: &[u8]) -> Result<SessionSpec, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        if text.trim().is_empty() {
            return Ok(SessionSpec::default());
        }
        let value = Json::parse(text)?;
        let mut spec = SessionSpec::default();
        if let Some(field) = value.get("field") {
            spec.field = FieldSpec::from_json(field)?;
        }
        if let Some(config) = value.get("config") {
            spec.config = parse_config_overrides(config, spec.config)?;
        }
        if let Some(machine) = value.get("machine") {
            spec.processors = parse_count(machine, "processors", spec.processors)?;
            spec.pipes = parse_count(machine, "pipes", spec.pipes)?;
        }
        if let Some(dt) = value.get("dt") {
            spec.dt = dt.as_f64().ok_or("dt not a number")?;
        }
        if let Some(shared) = value.get("shared") {
            spec.shared = shared.as_bool().ok_or("shared not a boolean")?;
        }
        if let Some(pinned) = value.get("pinned") {
            spec.pinned = pinned.as_bool().ok_or("pinned not a boolean")?;
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Validates the spec (delegating config checks to
    /// [`SynthesisConfig::validate`]).
    pub fn validate(&self) -> Result<(), String> {
        self.config.validate()?;
        if !(self.dt.is_finite() && self.dt > 0.0) {
            return Err(format!("dt {} must be finite and positive", self.dt));
        }
        if self.processors == 0 || self.processors > 256 {
            return Err(format!("processors {} out of [1, 256]", self.processors));
        }
        if self.pipes == 0 || self.pipes > self.processors {
            return Err(format!(
                "pipes {} out of [1, processors={}]",
                self.pipes, self.processors
            ));
        }
        if self.config.texture_size > 2048 {
            return Err(format!(
                "texture_size {} above the service cap of 2048",
                self.config.texture_size
            ));
        }
        Ok(())
    }

    /// Stable content hash of the configuration half of the frame-cache key:
    /// the [`SynthesisConfig::cache_key`] extended with the machine shape
    /// and time step, which also determine the rendered texels.
    pub(crate) fn config_cache_key(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_str("SessionConfig/v1");
        h.write_u64(self.config.cache_key());
        h.write_usize(self.processors);
        h.write_usize(self.pipes);
        h.write_f64(self.dt);
        h.finish()
    }

    /// Bytes of one rendered frame (`texture_size² × 4`, little-endian f32).
    pub fn frame_bytes(&self) -> usize {
        self.config.texture_size * self.config.texture_size * 4
    }
}

fn parse_count(obj: &Json, key: &str, default: usize) -> Result<usize, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => {
            let n = v
                .as_f64()
                .ok_or_else(|| format!("machine.{key} not a number"))?;
            if n.fract() != 0.0 || !(0.0..=1.0e6).contains(&n) {
                return Err(format!("machine.{key} {n} not a small whole number"));
            }
            Ok(n as usize)
        }
    }
}

/// Applies the optional `config` overrides onto a base configuration.
fn parse_config_overrides(obj: &Json, base: SynthesisConfig) -> Result<SynthesisConfig, String> {
    let mut cfg = base;
    let usize_key = |key: &str, current: usize| -> Result<usize, String> {
        match obj.get(key) {
            None => Ok(current),
            Some(v) => {
                let n = v
                    .as_f64()
                    .ok_or_else(|| format!("config.{key} not a number"))?;
                if n.fract() != 0.0 || !(0.0..=1.0e9).contains(&n) {
                    return Err(format!("config.{key} {n} not a whole number"));
                }
                Ok(n as usize)
            }
        }
    };
    let f64_key = |key: &str, current: f64| -> Result<f64, String> {
        match obj.get(key) {
            None => Ok(current),
            Some(v) => v
                .as_f64()
                .filter(|n| n.is_finite())
                .ok_or_else(|| format!("config.{key} not a finite number")),
        }
    };
    cfg.texture_size = usize_key("texture_size", cfg.texture_size)?;
    cfg.spot_count = usize_key("spot_count", cfg.spot_count)?;
    cfg.spot_texture_size = usize_key("spot_texture_size", cfg.spot_texture_size)?;
    cfg.spot_batch = usize_key("spot_batch", cfg.spot_batch)?;
    cfg.spot_radius = f64_key("spot_radius", cfg.spot_radius)?;
    cfg.max_stretch = f64_key("max_stretch", cfg.max_stretch)?;
    cfg.intensity_amplitude = f64_key("intensity_amplitude", cfg.intensity_amplitude)?;
    if let Some(v) = obj.get("seed") {
        let n = v.as_f64().ok_or("config.seed not a number")?;
        if n.fract() != 0.0 || n < 0.0 {
            return Err(format!("config.seed {n} not a non-negative whole number"));
        }
        cfg.seed = n as u64;
    }
    if let Some(v) = obj.get("use_tiling") {
        cfg.use_tiling = v.as_bool().ok_or("config.use_tiling not a boolean")?;
    }
    if let Some(v) = obj.get("sampling") {
        let text = v.as_str().ok_or("config.sampling not a string")?;
        cfg.sampling = match text {
            "exact" => SamplingMode::Exact,
            "footprint" => SamplingMode::Footprint,
            other => return Err(format!("unknown config.sampling {other:?}")),
        };
    }
    Ok(cfg)
}

/// The wire name of a sampling mode (the `config.sampling` request key and
/// the session-info echo).
pub(crate) fn sampling_mode_name(mode: SamplingMode) -> &'static str {
    match mode {
        SamplingMode::Exact => "exact",
        SamplingMode::Footprint => "footprint",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_valid() {
        let spec = SessionSpec::default();
        assert!(spec.validate().is_ok());
        assert_eq!(spec.frame_bytes(), 128 * 128 * 4);
    }

    #[test]
    fn empty_body_yields_default_spec() {
        assert_eq!(SessionSpec::from_body(b"").unwrap(), SessionSpec::default());
        assert_eq!(
            SessionSpec::from_body(b"  \n ").unwrap(),
            SessionSpec::default()
        );
    }

    #[test]
    fn body_overrides_apply_piecewise() {
        let body = br#"{
            "field": {"kind": "shear", "rate": 2.5},
            "config": {"texture_size": 64, "spot_count": 100, "seed": 7, "use_tiling": true},
            "machine": {"processors": 4, "pipes": 2},
            "dt": 0.1
        }"#;
        let spec = SessionSpec::from_body(body).unwrap();
        assert_eq!(spec.field, FieldSpec::Shear { rate: 2.5 });
        assert_eq!(spec.config.texture_size, 64);
        assert_eq!(spec.config.spot_count, 100);
        assert_eq!(spec.config.seed, 7);
        assert!(spec.config.use_tiling);
        // Untouched keys keep their defaults.
        assert_eq!(spec.config.spot_batch, 64);
        assert_eq!(spec.config.sampling, SamplingMode::Exact);
        assert_eq!((spec.processors, spec.pipes), (4, 2));
        assert!((spec.dt - 0.1).abs() < 1e-12);
    }

    #[test]
    fn sampling_override_parses_and_keys_the_cache() {
        let footprint =
            SessionSpec::from_body(br#"{"config": {"sampling": "footprint"}}"#).unwrap();
        assert_eq!(footprint.config.sampling, SamplingMode::Footprint);
        let exact = SessionSpec::from_body(br#"{"config": {"sampling": "exact"}}"#).unwrap();
        assert_eq!(exact.config.sampling, SamplingMode::Exact);
        // The two modes render (slightly) different texels, so they must
        // occupy distinct frame-cache keys.
        assert_ne!(footprint.config_cache_key(), exact.config_cache_key());
        assert!(SessionSpec::from_body(br#"{"config": {"sampling": "trilinear"}}"#).is_err());
        assert!(SessionSpec::from_body(br#"{"config": {"sampling": 3}}"#).is_err());
        assert_eq!(sampling_mode_name(SamplingMode::Exact), "exact");
        assert_eq!(sampling_mode_name(SamplingMode::Footprint), "footprint");
    }

    #[test]
    fn shared_flag_parses_without_perturbing_the_cache_key() {
        let shared = SessionSpec::from_body(br#"{"shared": true}"#).unwrap();
        assert!(shared.shared);
        let private = SessionSpec::default();
        assert!(!private.shared);
        // Shared and private sessions of the same spec render identical
        // texels — they must land on the same frame-cache keys.
        assert_eq!(shared.config_cache_key(), private.config_cache_key());
        assert_eq!(shared.field.cache_key(), private.field.cache_key());
        assert!(SessionSpec::from_body(br#"{"shared": 1}"#).is_err());
    }

    #[test]
    fn pinned_flag_parses_without_perturbing_the_cache_key() {
        let pinned = SessionSpec::from_body(br#"{"pinned": true}"#).unwrap();
        assert!(pinned.pinned);
        let default = SessionSpec::default();
        assert!(!default.pinned);
        // Pinning gates *when* degradation may happen, never what a config
        // renders — same cache keys either way.
        assert_eq!(pinned.config_cache_key(), default.config_cache_key());
        assert!(SessionSpec::from_body(br#"{"pinned": "yes"}"#).is_err());
    }

    #[test]
    fn bad_bodies_are_rejected() {
        assert!(SessionSpec::from_body(b"{").is_err());
        assert!(SessionSpec::from_body(br#"{"field": {"kind": "nope"}}"#).is_err());
        assert!(SessionSpec::from_body(br#"{"dt": -1.0}"#).is_err());
        assert!(SessionSpec::from_body(br#"{"config": {"spot_count": 0}}"#).is_err());
        assert!(SessionSpec::from_body(br#"{"machine": {"processors": 0}}"#).is_err());
        assert!(SessionSpec::from_body(br#"{"config": {"texture_size": 4096}}"#).is_err());
        assert!(SessionSpec::from_body(br#"{"field": {"kind": "vortex", "omega": "x"}}"#).is_err());
    }

    #[test]
    fn field_specs_round_trip_through_json() {
        let specs = [
            FieldSpec::Uniform { vx: 0.2, vy: -0.1 },
            FieldSpec::default_vortex(),
            FieldSpec::Shear { rate: 3.0 },
            FieldSpec::Saddle {
                rate: 1.0,
                cx: 0.4,
                cy: 0.6,
            },
            FieldSpec::DoubleGyre {
                amplitude: 0.1,
                epsilon: 0.05,
                omega: 1.0,
                time: 0.3,
            },
            FieldSpec::TaylorGreen {
                amplitude: 1.0,
                cells: 3.0,
            },
        ];
        for spec in specs {
            let round = FieldSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(round, spec);
            assert_eq!(round.cache_key(), spec.cache_key());
        }
    }

    #[test]
    fn field_cache_keys_discriminate() {
        let a = FieldSpec::Vortex {
            omega: 1.0,
            cx: 0.5,
            cy: 0.5,
        };
        let b = FieldSpec::Vortex {
            omega: 1.5,
            cx: 0.5,
            cy: 0.5,
        };
        let c = FieldSpec::Shear { rate: 1.0 };
        assert_ne!(a.cache_key(), b.cache_key());
        assert_ne!(a.cache_key(), c.cache_key());
        assert_ne!(b.cache_key(), c.cache_key());
        // Identical params, identical key — the steer-back scenario.
        assert_eq!(
            a.cache_key(),
            FieldSpec::Vortex {
                omega: 1.0,
                cx: 0.5,
                cy: 0.5
            }
            .cache_key()
        );
    }

    #[test]
    fn built_fields_evaluate() {
        let spec = FieldSpec::default_vortex();
        let field = spec.build();
        let v = field.velocity(Vec2::new(0.75, 0.5));
        assert!(v.norm() > 0.0);
        assert_eq!(field.domain(), service_domain());
    }

    #[test]
    fn config_cache_key_covers_machine_and_dt() {
        let base = SessionSpec::default();
        let mut other = base;
        other.processors = 2;
        other.pipes = 2;
        assert_ne!(base.config_cache_key(), other.config_cache_key());
        let mut dt = base;
        dt.dt = 0.1;
        assert_ne!(base.config_cache_key(), dt.config_cache_key());
        assert_eq!(
            base.config_cache_key(),
            SessionSpec::default().config_cache_key()
        );
    }
}
