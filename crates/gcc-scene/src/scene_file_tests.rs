//! Differential and hostile-input tests of the two scene-file codecs.
//!
//! The streaming JSON decoder ([`io::from_json`]) is held against a
//! reference that decodes the same text through the [`json::Value`] tree
//! — the decoder the crate shipped before the pull tokenizer, kept here
//! only as the thing to differ from. The two must agree on every
//! document: an equal [`Scene`], or an error from both.

use crate::io::{self, SceneIoError};
use crate::json::{self, Value};
use crate::lod::{LodLevel, SceneLod};
use crate::rng::StdRng;
use crate::{OrbitRig, Scene, SceneConfig, ScenePreset, ALL_PRESETS};
use gcc_core::{Gaussian3D, PARAM_FLOATS};
use gcc_math::Vec3;

// ---- the tree-based reference decoder ----

fn format_err<T>(m: impl Into<String>) -> Result<T, SceneIoError> {
    Err(SceneIoError::Format(m.into()))
}

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, SceneIoError> {
    match v.get(key) {
        Some(v) => Ok(v),
        None => format_err(format!("missing field '{key}'")),
    }
}

fn f32_field(v: &Value, key: &str) -> Result<f32, SceneIoError> {
    match field(v, key)?.as_f32() {
        Some(v) => Ok(v),
        None => format_err(format!("field '{key}' is not a number")),
    }
}

fn vec3_field(v: &Value, key: &str) -> Result<Vec3, SceneIoError> {
    let Some(arr) = field(v, key)?.as_arr().filter(|a| a.len() == 3) else {
        return format_err(format!("field '{key}' is not a 3-array"));
    };
    let mut out = [0.0f32; 3];
    for (slot, item) in out.iter_mut().zip(arr) {
        let Some(v) = item.as_f32() else {
            return format_err(format!("non-numeric '{key}' element"));
        };
        *slot = v;
    }
    Ok(Vec3::new(out[0], out[1], out[2]))
}

fn records_from_dom(v: Option<&Value>, what: &str) -> Result<Vec<Gaussian3D>, SceneIoError> {
    let Some(records) = v.and_then(Value::as_arr) else {
        return format_err(format!("{what}: 'gaussians' is not an array"));
    };
    let mut gaussians = Vec::with_capacity(records.len());
    for (i, g) in records.iter().enumerate() {
        let Some(rec) = g.as_arr().filter(|a| a.len() == PARAM_FLOATS) else {
            return format_err(format!("{what} {i} is not a {PARAM_FLOATS}-array"));
        };
        let mut floats = [0.0f32; PARAM_FLOATS];
        for (slot, item) in floats.iter_mut().zip(rec) {
            let Some(v) = item.as_f32() else {
                return format_err(format!("{what} {i}: bad float"));
            };
            *slot = v;
        }
        gaussians.push(Gaussian3D::from_floats(&floats));
    }
    Ok(gaussians)
}

/// The streaming decoder's one deliberate tightening, applied to the tree.
fn reject_repeated(v: &Value, keys: &[&str]) -> Result<(), SceneIoError> {
    let Value::Obj(members) = v else {
        return Ok(());
    };
    for key in keys {
        if members.iter().filter(|(k, _)| k == key).count() > 1 {
            return format_err(format!("repeated '{key}'"));
        }
    }
    Ok(())
}

fn lod_from_dom(v: &Value) -> Result<SceneLod, SceneIoError> {
    reject_repeated(v, &["levels"])?;
    let seed = match v.get("seed") {
        Some(Value::Num(t)) => match t.parse::<u64>() {
            Ok(seed) => seed,
            Err(_) => return format_err(format!("lod: bad seed '{t}'")),
        },
        _ => return format_err("lod: missing numeric 'seed'"),
    };
    let Some(levels_v) = v.get("levels").and_then(Value::as_arr) else {
        return format_err("lod: missing 'levels' array");
    };
    let mut levels = Vec::with_capacity(levels_v.len());
    for (li, lv) in levels_v.iter().enumerate() {
        reject_repeated(lv, &["gaussians"])?;
        let Some(cell_size) = lv.get("cell_size").and_then(Value::as_f32) else {
            return format_err(format!("lod level {li}: bad 'cell_size'"));
        };
        let gaussians = records_from_dom(lv.get("gaussians"), &format!("lod level {li} gaussian"))?;
        levels.push(LodLevel {
            gaussians,
            cell_size,
        });
    }
    Ok(SceneLod { levels, seed })
}

fn from_json_dom(s: &str) -> Result<Scene, SceneIoError> {
    let doc = json::parse(s).map_err(SceneIoError::Format)?;
    reject_repeated(&doc, &["gaussians", "lod"])?;
    let Some(name) = field(&doc, "name")?.as_str() else {
        return format_err("'name' is not a string");
    };
    let Some(res) = field(&doc, "resolution")?.as_arr().filter(|a| a.len() == 2) else {
        return format_err("'resolution' is not a 2-array");
    };
    let (Some(width), Some(height)) = (res[0].as_u32(), res[1].as_u32()) else {
        return format_err("bad width or height");
    };
    let fov_y_deg = f32_field(&doc, "fov_y_deg")?;
    let rig_v = field(&doc, "rig")?;
    let rig = OrbitRig {
        center: vec3_field(rig_v, "center")?,
        look_at: vec3_field(rig_v, "look_at")?,
        radius: f32_field(rig_v, "radius")?,
        height: f32_field(rig_v, "height")?,
        arc: f32_field(rig_v, "arc")?,
        phase: f32_field(rig_v, "phase")?,
    };
    let gaussians = records_from_dom(Some(field(&doc, "gaussians")?), "gaussian")?;
    let lod = doc.get("lod").map(lod_from_dom).transpose()?;
    Ok(Scene {
        name: name.to_string(),
        gaussians,
        resolution: (width, height),
        fov_y_deg,
        rig,
        lod,
    })
}

// ---- helpers ----

/// Every field, floats by their bits.
fn same_scene(a: &Scene, b: &Scene) -> bool {
    a.name == b.name
        && a.gaussians == b.gaussians
        && a.resolution == b.resolution
        && a.fov_y_deg.to_bits() == b.fov_y_deg.to_bits()
        && a.rig == b.rig
        && a.lod == b.lod
}

/// The thread counts every document is decoded on: one is the sequential
/// loop, two and three walk every record array for its spans and decode
/// it span by span (arrays this short on the thread that walked them:
/// what a walk can get wrong is where it splits, which no thread changes).
const THREADS: [usize; 3] = [1, 2, 3];

/// Decodes `doc` on every count of [`THREADS`] and checks that chunking
/// changes nothing: the same scene, or the same error to the letter.
/// Returns the sequential result.
fn on_every_thread_count(doc: &str, why: &str) -> Result<Scene, SceneIoError> {
    let [sequential, chunked @ ..] = THREADS.map(|threads| io::scene_from_json(doc, threads));
    for (chunked, threads) in chunked.iter().zip(&THREADS[1..]) {
        match (&sequential, chunked) {
            (Ok(s), Ok(c)) => assert!(same_scene(s, c), "{why}: {threads} threads, scenes differ"),
            (Err(s), Err(c)) => assert_eq!(s, c, "{why}: {threads} threads"),
            (Ok(_), Err(e)) => panic!("{why}: {threads} threads reject what one accepts ({e})"),
            (Err(e), Ok(_)) => panic!("{why}: {threads} threads accept what one rejects ({e})"),
        }
    }
    sequential.map_err(SceneIoError::Format)
}

/// Decodes `doc` both ways — the streaming decoder on every thread count —
/// and checks they agree; returns the streaming decoder's result.
fn agree(doc: &str, why: &str) -> Result<Scene, SceneIoError> {
    let streamed = on_every_thread_count(doc, why);
    match (&streamed, from_json_dom(doc)) {
        (Ok(s), Ok(r)) => assert!(same_scene(s, &r), "{why}: decoded scenes differ"),
        (Err(_), Err(_)) => {}
        (Ok(_), Err(e)) => panic!("{why}: streaming accepts what the reference rejects ({e})"),
        (Err(e), Ok(_)) => panic!("{why}: streaming rejects what the reference accepts ({e})"),
    }
    streamed
}

/// A hand-made hierarchy (the real builder lives above this crate).
fn with_lod(mut scene: Scene) -> Scene {
    let level = |step: usize, cell_size: f32| LodLevel {
        gaussians: scene.gaussians.iter().step_by(step).cloned().collect(),
        cell_size,
    };
    scene.lod = Some(SceneLod {
        levels: vec![level(3, 0.25), level(9, 0.5)],
        seed: 99,
    });
    scene
}

fn tiny_scene() -> Scene {
    let mut scene = ScenePreset::Lego.build(&SceneConfig::with_scale(0.001));
    scene.gaussians.truncate(6);
    with_lod(scene)
}

/// Writes a tree back as text, compact or generously spaced.
fn write_value(v: &Value, spaced: bool, out: &mut String) {
    let gap = if spaced { " \n\t" } else { "" };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(t) => out.push_str(t),
        Value::Str(s) => json::write_str(out, s),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(gap);
                write_value(item, spaced, out);
            }
            out.push_str(gap);
            out.push(']');
        }
        Value::Obj(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(gap);
                json::write_str(out, k);
                out.push_str(gap);
                out.push(':');
                out.push_str(gap);
                write_value(item, spaced, out);
            }
            out.push_str(gap);
            out.push('}');
        }
    }
}

/// Shuffles the members of every object and drops unknown members — a
/// scalar, a nested array, a nested object — among them. Arrays of
/// numbers (the records) are left alone: they are positional.
fn scramble(v: &mut Value, rng: &mut StdRng) {
    match v {
        Value::Obj(members) => {
            for (_, item) in members.iter_mut() {
                scramble(item, rng);
            }
            let unknown = [
                ("note", Value::Str("an \"escaped\" é \\ string".into())),
                (
                    "history",
                    json::parse(r#"[1, [2.5e-3, [], {}], "x", null, true]"#).unwrap(),
                ),
                (
                    "extras",
                    json::parse(r#"{"gaussians": [[1, 2]], "lod": {"seed": -1}, "k": false}"#)
                        .unwrap(),
                ),
            ];
            for (k, item) in unknown {
                if rng.gen_range(0..2usize) == 0 {
                    members.push((k.to_string(), item));
                }
            }
            for i in (1..members.len()).rev() {
                members.swap(i, rng.gen_range(0..i + 1));
            }
        }
        Value::Arr(items) => {
            for item in items.iter_mut().filter(|i| !matches!(i, Value::Num(_))) {
                scramble(item, rng);
            }
        }
        _ => {}
    }
}

// ---- streaming ≡ reference on valid documents ----

#[test]
fn streaming_decode_matches_the_tree_reference_on_every_preset() {
    let mut rng = StdRng::seed_from_u64(0x5CE7_E001);
    for preset in ALL_PRESETS {
        let plain = preset.build(&SceneConfig::with_scale(0.001));
        for scene in [plain.clone(), with_lod(plain)] {
            for pretty in [false, true] {
                let doc = io::to_json(&scene, pretty).unwrap();
                let why = format!("{preset} lod={} pretty={pretty}", scene.lod.is_some());
                let back = agree(&doc, &why).unwrap();
                assert!(same_scene(&back, &scene), "{why}: round trip");
                let tree = json::parse(&doc).unwrap();
                for round in 0..3 {
                    let mut shuffled = tree.clone();
                    scramble(&mut shuffled, &mut rng);
                    let mut text = String::new();
                    write_value(&shuffled, round % 2 == 1, &mut text);
                    let why = format!("{why} shuffle {round}");
                    let back = agree(&text, &why).unwrap();
                    assert!(same_scene(&back, &scene), "{why}: round trip");
                }
            }
        }
    }
}

#[test]
fn first_of_a_repeated_scalar_key_wins_but_repeated_record_keys_are_errors() {
    let scene = tiny_scene();
    let doc = io::to_json(&scene, false).unwrap();
    // Scalars: the tree kept the first, so does the stream.
    let dup = doc.replacen("\"fov_y_deg\":", "\"fov_y_deg\":12.5,\"fov_y_deg\":", 1);
    assert_eq!(agree(&dup, "repeated fov").unwrap().fov_y_deg, 12.5);
    let dup = doc.replacen("\"radius\":", "\"radius\":\"x\",\"radius\":", 1);
    assert!(agree(&dup, "repeated radius, first is bad").is_err());
    // Records: a second copy is refused, at any of the three places.
    let empty_lod = r#"{"seed":1,"levels":[]}"#;
    for (key, nth, empty) in [
        ("gaussians", 0, "[]"),
        ("gaussians", 1, "[]"),
        ("lod", 0, empty_lod),
        ("levels", 0, "[]"),
    ] {
        let needle = format!("\"{key}\":");
        let (at, _) = doc.match_indices(&needle).nth(nth).unwrap();
        let dup = format!("{}{needle}{empty},{}", &doc[..at], &doc[at..]);
        let err = agree(&dup, key).unwrap_err();
        assert!(err.to_string().contains("repeated"), "{key}: {err}");
    }
}

#[test]
fn scene_errors_name_the_record_and_the_byte_offset() {
    let scene = tiny_scene();
    let doc = io::to_json(&scene, false).unwrap();
    let records = doc.find("\"gaussians\":[[").unwrap() + "\"gaussians\":[".len();
    let second = records + doc[records..].find("],[").unwrap() + 2;

    // A 58-number record, a 60-number record, a non-number in a record.
    let cut = second + doc[second..].find(',').unwrap();
    let short = format!("{}{}", &doc[..second + 1], &doc[cut + 1..]);
    let long = format!("{}0,{}", &doc[..second + 1], &doc[second + 1..]);
    let word = format!("{}true,{}", &doc[..second + 1], &doc[cut + 1..]);
    for (bad, what) in [(short, "short"), (long, "long"), (word, "word")] {
        let err = agree(&bad, what).unwrap_err().to_string();
        assert!(
            err.contains("gaussian 1:") && err.contains("at byte"),
            "{what}: {err}"
        );
    }
    // A missing field keeps its historical message.
    let nameless = doc.replacen("\"name\":", "\"nom\":", 1);
    let err = agree(&nameless, "nameless").unwrap_err().to_string();
    assert!(err.contains("missing field 'name'"), "{err}");
    // Saturation to infinity is an error wherever a float is read.
    let huge = doc.replacen("\"cell_size\":0.25", "\"cell_size\":1e39", 1);
    assert_ne!(huge, doc);
    assert!(agree(&huge, "huge cell_size").is_err());
}

// ---- documents the span walk could mis-split ----

/// The compact document of a scene with `records` Gaussians and no
/// hierarchy, and the offsets of its records' opening brackets.
fn flat_doc(records: usize) -> (String, Vec<usize>) {
    let mut scene = ScenePreset::Lego.build(&SceneConfig::with_scale(0.002));
    scene.gaussians.truncate(records);
    assert_eq!(scene.len(), records);
    let doc = io::to_json(&scene, false).unwrap();
    let array = doc.find("\"gaussians\":[").unwrap() + "\"gaussians\":[".len();
    let mut starts = vec![array];
    starts.extend(
        doc[array..]
            .match_indices("],[")
            .map(|(at, _)| array + at + 2),
    );
    assert_eq!(starts.len(), records);
    (doc, starts)
}

#[test]
fn brackets_where_the_span_walk_does_not_expect_them_change_nothing() {
    let (doc, starts) = flat_doc(9);
    let third = starts[2];
    // The first number of the third record, and what follows it.
    let comma = third + doc[third..].find(',').unwrap();
    let (head, first, rest) = (&doc[..third + 1], &doc[third + 1..comma], &doc[comma..]);
    let refused = [
        ("nested array", format!("{head}[{first}]{rest}")),
        ("nested empty array", format!("{head}{first},[]{rest}")),
        ("string holding ]", format!("{head}\"]\"{rest}")),
        ("string holding [", format!("{head}\"[\"{rest}")),
        ("string faking a gap", format!("{head}\"],[\"{rest}")),
        ("object holding ]", format!("{head}{{\"]\":0}}{rest}")),
        ("58 numbers", format!("{head}{}", &rest[1..])),
        ("60 numbers", format!("{head}0,{first}{rest}")),
        (
            "empty record",
            format!("{}[],{}", &doc[..third], &doc[third..]),
        ),
        (
            "stray closer",
            format!("{}],{}", &doc[..third], &doc[third..]),
        ),
        (
            "doubled comma",
            format!("{},{}", &doc[..third], &doc[third..]),
        ),
        (
            "leading comma",
            format!("{},{}", &doc[..starts[0]], &doc[starts[0]..]),
        ),
        ("trailing comma", doc.replacen("]]", "],]", 1)),
        (
            "missing comma",
            format!("{}{}", &doc[..third - 1], &doc[third..]),
        ),
        (
            "number between records",
            format!("{}7,{}", &doc[..third], &doc[third..]),
        ),
    ];
    for (what, bad) in &refused {
        assert_ne!(bad, &doc, "{what}");
        let err = agree(bad, what).unwrap_err().to_string();
        // Two whole records were read before the walk's guess went wrong.
        let named = ["gaussian 2:", "gaussian 3:", "at byte"];
        assert!(named.iter().any(|n| err.contains(n)), "{what}: {err}");
    }
    // A file that ends inside the array, at and around every boundary the
    // walk steps over.
    for &start in &starts[1..] {
        for cut in start - 2..start + 3 {
            assert!(agree(&doc[..cut], "cut inside the array").is_err());
        }
    }
    // An empty array, bare and spaced.
    let close = doc.rfind("]]").unwrap() + 1;
    for gap in ["", " ", "\n\t "] {
        let empty = format!("{}{gap}{}", &doc[..starts[0]], &doc[close..]);
        assert!(agree(&empty, "empty array").unwrap().gaussians.is_empty());
    }
}

#[test]
fn whitespace_between_records_and_a_lod_section_after_them_decode_chunked() {
    let scene = with_lod({
        let mut scene = ScenePreset::Train.build(&SceneConfig::with_scale(0.002));
        scene.gaussians.truncate(40);
        scene
    });
    // `to_json` writes `lod` after `gaussians`; the pretty form puts a
    // newline and an indent between records.
    for pretty in [false, true] {
        let doc = io::to_json(&scene, pretty).unwrap();
        assert!(doc.find("\"lod\"").unwrap() > doc.find("\"gaussians\"").unwrap());
        let back = agree(&doc, "lod after gaussians").unwrap();
        assert!(same_scene(&back, &scene), "pretty={pretty}");
    }
    // Every gap the grammar allows, stretched: before the first record,
    // around each comma, before the closer — and inside the records.
    let doc = io::to_json(&scene, false).unwrap();
    let stretched = doc
        .replace("],[", "] \r\n,\t\n [")
        .replace("[[", "[ \n[ ")
        .replace("]]", " ]\n\t]");
    assert_ne!(stretched, doc);
    let back = agree(&stretched, "stretched gaps").unwrap();
    assert!(same_scene(&back, &scene));
    // Exponents and a cut number do not move a span's end.
    let exponent = doc.replacen("],[", "],[1e0,", 1);
    assert!(agree(&exponent, "60 numbers, one an exponent").is_err());
}

// ---- resident size does not depend on the format ----

#[test]
fn loaded_scenes_charge_the_same_bytes_whatever_the_format() {
    let built = with_lod(ScenePreset::Train.build(&SceneConfig::with_scale(0.01)));
    // `clone` is the in-memory scene at its tightest: `capacity == len`.
    let in_memory = built.clone();
    let from_text = io::from_json(&io::to_json(&built, false).unwrap()).unwrap();
    let mut image = Vec::new();
    io::write_binary(&built, &mut image).unwrap();
    let from_image = io::read_binary(image.as_slice()).unwrap();
    for (scene, how) in [(&from_text, "json"), (&from_image, "binary")] {
        assert_eq!(scene.gaussians.capacity(), scene.gaussians.len(), "{how}");
        for level in &scene.lod.as_ref().unwrap().levels {
            assert_eq!(level.gaussians.capacity(), level.gaussians.len(), "{how}");
        }
        assert_eq!(scene.approx_bytes(), in_memory.approx_bytes(), "{how}");
    }
}

// ---- hostile input ----

/// `n` seeded single-byte edits of `valid`: overwrites and insertions,
/// half of them drawn from the bytes that carry structure.
fn mutations(valid: &[u8], n: usize, seed: u64) -> impl Iterator<Item = Vec<u8>> + '_ {
    const STRUCTURAL: &[u8] = b"[]{},:\"\\-+.eE0123456789 \n";
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(move |_| {
        let mut bytes = valid.to_vec();
        let at = rng.gen_range(0..bytes.len());
        let byte = if rng.gen_range(0..2usize) == 0 {
            STRUCTURAL[rng.gen_range(0..STRUCTURAL.len())]
        } else {
            rng.gen_range(0..256usize) as u8
        };
        if rng.gen_range(0..3usize) == 0 {
            bytes.insert(at, byte);
        } else {
            bytes[at] = byte;
        }
        bytes
    })
}

#[test]
fn mutated_json_scenes_never_panic_and_both_decoders_agree() {
    let doc = io::to_json(&tiny_scene(), false).unwrap();
    assert!(agree(&doc, "unmutated").is_ok());
    // Cut at every byte offset (on a character boundary: the decoder
    // takes text). Nothing short of the whole document is a scene.
    for cut in (0..doc.len()).filter(|&c| doc.is_char_boundary(c)) {
        assert!(agree(&doc[..cut], "truncation").is_err(), "cut at {cut}");
    }
    let (mut decoded, mut refused, mut not_text) = (0, 0, 0);
    for bytes in mutations(doc.as_bytes(), 6000, 0x5CE7_E002) {
        match std::str::from_utf8(&bytes) {
            Ok(text) => match agree(text, "mutation") {
                Ok(_) => decoded += 1,
                Err(SceneIoError::Format(_)) => refused += 1,
                Err(SceneIoError::Io(e)) => panic!("a text decode has no i/o to fail: {e}"),
            },
            // What `load_scene_file` answers for such a file.
            Err(_) => {
                not_text += 1;
                let err = io::decode_scene(&bytes, 1).unwrap_err();
                assert!(matches!(err, SceneIoError::Format(_)), "{err}");
            }
        }
    }
    // The pass has to have exercised both outcomes to mean anything.
    assert!(
        decoded > 100 && refused > 1000 && not_text > 100,
        "{decoded} decoded, {refused} refused, {not_text} not UTF-8"
    );
}

#[test]
fn mutated_binary_scenes_never_panic() {
    let scene = tiny_scene();
    let mut image = Vec::new();
    io::write_binary(&scene, &mut image).unwrap();
    assert!(same_scene(&io::decode_scene(&image, 1).unwrap(), &scene));
    // Where the scene's own records end and the LOD flag sits.
    let mut flagless = scene.clone();
    flagless.lod = None;
    let mut head = Vec::new();
    io::write_binary(&flagless, &mut head).unwrap();
    let flag_at = head.len() - 1;
    for cut in 0..image.len() {
        match io::decode_scene(&image[..cut], 1) {
            // A file from before the LOD section ends at the flag byte.
            Ok(back) => assert!(cut == flag_at && back.lod.is_none(), "cut at {cut}"),
            // Shorter than the magic, such a file is read as JSON.
            Err(SceneIoError::Format(_)) => assert!(cut < 8 || cut > flag_at, "cut at {cut}"),
            Err(SceneIoError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "cut at {cut}");
                assert!((8..flag_at).contains(&cut), "cut at {cut}");
            }
        }
    }
    let (mut decoded, mut refused) = (0, 0);
    for bytes in mutations(&image, 6000, 0x5CE7_E003) {
        match io::decode_scene(&bytes, 1) {
            Ok(_) => decoded += 1,
            Err(_) => refused += 1,
        }
    }
    // Most edits land in float payload and decode to a different scene;
    // the ones in the header, the counts and the flag are refused.
    assert!(
        decoded > 1000 && refused > 50,
        "{decoded} decoded, {refused} refused"
    );
}

#[test]
fn binary_record_counts_are_checked_against_the_bytes_in_hand() {
    let mut flagless = tiny_scene();
    flagless.lod = None;
    let mut image = Vec::new();
    io::write_binary(&flagless, &mut image).unwrap();
    let count_at = image.len() - 1 - 6 * PARAM_FLOATS * 4 - 8;
    assert_eq!(image[count_at..count_at + 8], 6u64.to_le_bytes());
    for count in [7u64, 1 << 24, u64::MAX / 236, u64::MAX] {
        image[count_at..count_at + 8].copy_from_slice(&count.to_le_bytes());
        match io::decode_scene(&image, 1).unwrap_err() {
            SceneIoError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
            other => panic!("count {count}: {other}"),
        }
    }
}
