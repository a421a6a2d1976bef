//! Integration tests of the full interactive pipeline across crates:
//! application model (flowsim) -> spot noise synthesis (spotnoise) ->
//! presentation (flowviz) on the simulated graphics subsystem (softpipe).

use flowsim::SmogModel;
use flowviz::{overlay_scalar_field, texture_to_framebuffer, Colormap};
use softpipe::machine::MachineConfig;
use softpipe::Rgb;
use spotnoise::config::{SpotKind, SynthesisConfig};
use spotnoise::metrics::timed;
use spotnoise::pipeline::{ExecutionMode, Pipeline};

fn small_cfg() -> SynthesisConfig {
    SynthesisConfig {
        texture_size: 128,
        spot_count: 400,
        spot_kind: SpotKind::Bent { rows: 8, cols: 3 },
        ..SynthesisConfig::atmospheric_paper()
    }
}

#[test]
fn smog_pipeline_produces_animated_frames_with_reports() {
    let mut model = SmogModel::new(27, 28, 5);
    let machine = MachineConfig::new(4, 2);
    let mut pipeline = Pipeline::new(
        small_cfg(),
        ExecutionMode::DivideAndConquer(machine),
        model.domain(),
    );

    let mut previous_texture = None;
    for _ in 0..3 {
        let (_, read_us) = timed(|| model.step(0.2));
        let frame = pipeline.advance(model.wind_field(), 0.2, read_us);

        // Every frame carries a divide-and-conquer report with two groups.
        let dnc = frame.dnc.as_ref().expect("dnc report");
        assert_eq!(dnc.groups.len(), 2);
        assert!(dnc.predicted.textures_per_second > 0.0);
        assert!(frame.metrics.timings.read_us > 0);
        assert_eq!(frame.metrics.spots, 400);

        // Frames differ because the wind changes and the spots advect.
        if let Some(prev) = &previous_texture {
            assert!(frame.texture.absolute_difference(prev) > 0.0);
        }
        previous_texture = Some(frame.texture.clone());

        // The display texture composes into a valid Figure-6-style image.
        let mut fb = texture_to_framebuffer(&frame.display, 128, 128, Colormap::Grayscale);
        let range = model.concentration().range();
        overlay_scalar_field(
            &mut fb,
            model.concentration(),
            range,
            Colormap::Rainbow,
            0.5,
        );
        flowviz::draw_map(&mut fb, model.domain(), Rgb::new(255, 255, 255));
        assert_eq!(fb.width(), 128);
    }
    assert_eq!(pipeline.frames(), 3);
}

#[test]
fn pipeline_throughput_counts_synthesis_stages_only() {
    let mut model = SmogModel::new(27, 28, 9);
    let mut pipeline = Pipeline::new(small_cfg(), ExecutionMode::Sequential, model.domain());
    model.step(0.1);
    let frame = pipeline.advance(model.wind_field(), 0.1, 12345);
    let t = frame.metrics.timings;
    // The paper's tables count only steps 2 + 3; reading the data set and
    // rendering the scene are excluded.
    let synth_only = t.synthesis_seconds();
    assert!(synth_only > 0.0);
    assert!(synth_only <= t.total_seconds());
    assert!((t.textures_per_second() - 1.0 / synth_only).abs() < 1e-9);
}

#[test]
fn sequential_and_dnc_pipelines_agree_on_the_same_animator_seed() {
    // Two pipelines with the same configuration and seed produce the same
    // first-frame texture regardless of the execution mode (up to float
    // reassociation in the divide-and-conquer gather).
    let mut model = SmogModel::new(27, 28, 13);
    model.step(0.2);
    let cfg = small_cfg();
    let mut seq = Pipeline::new(cfg, ExecutionMode::Sequential, model.domain());
    let mut par = Pipeline::new(
        cfg,
        ExecutionMode::DivideAndConquer(MachineConfig::new(4, 4)),
        model.domain(),
    );
    let a = seq.advance(model.wind_field(), 0.1, 0);
    let b = par.advance(model.wind_field(), 0.1, 0);
    let mean_diff =
        a.texture.absolute_difference(&b.texture) / (cfg.texture_size * cfg.texture_size) as f64;
    assert!(mean_diff < 1e-4, "mean texel difference {mean_diff}");
}
