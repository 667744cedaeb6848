//! Output verification: every delivered frame is compared with a
//! reference built before the timed phases, and every attempted frame
//! lands in a [`Tally`] as verified or failed.

use gcc_render::quality::ssim;
use gcc_render::Image;

/// Order-sensitive 64-bit checksum over the image size and the exact
/// bit pattern of every channel (FNV-1a folded per 32-bit word) — one
/// flipped mantissa bit changes it.
pub fn checksum(image: &Image) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |word: u32| h = (h ^ u64::from(word)).wrapping_mul(PRIME);
    fold(image.width());
    fold(image.height());
    for p in image.pixels() {
        fold(p.x.to_bits());
        fold(p.y.to_bits());
        fold(p.z.to_bits());
    }
    h
}

/// What a delivered frame is compared against.
#[derive(Debug, Clone)]
pub struct RefFrame {
    /// Checksum of the exact full-quality render of the view.
    pub checksum: u64,
    /// Size the frame must have.
    pub size: (u32, u32),
    /// The exact render itself, kept only where delivered frames may
    /// legitimately differ from it (`deadline_lod`).
    pub exact: Option<Image>,
}

impl RefFrame {
    /// The reference for `image`; `keep` retains the pixels for SSIM.
    pub fn of(image: Image, keep: bool) -> Self {
        Self {
            checksum: checksum(&image),
            size: (image.width(), image.height()),
            exact: keep.then_some(image),
        }
    }
}

/// How a frame must relate to its reference to count as verified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Bit-identical to the reference (checksums equal).
    Exact,
    /// Right size and SSIM against the exact render at least this.
    MinSsim(f64),
}

/// The verdict on one attempted frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Delivered and verified, scoring this SSIM against the exact render.
    Verified(f64),
    /// Delivered at the right size but failing the rule (SSIM when the
    /// exact pixels were at hand, else `0.0`).
    Mismatch(f64),
    /// Delivered at the wrong size.
    WrongSize,
    /// Not delivered: a typed rejection, error or timeout.
    Rejected,
}

/// Judges one attempted frame. `got` is the delivered image or the
/// failure's message.
pub fn judge<E>(reference: &RefFrame, rule: Rule, got: Result<&Image, E>) -> Outcome {
    let Ok(image) = got else {
        return Outcome::Rejected;
    };
    if (image.width(), image.height()) != reference.size {
        return Outcome::WrongSize;
    }
    if checksum(image) == reference.checksum {
        return Outcome::Verified(1.0);
    }
    let score = reference
        .exact
        .as_ref()
        .map_or(0.0, |exact| ssim(exact, image));
    match rule {
        Rule::MinSsim(floor) if score >= floor => Outcome::Verified(score),
        _ => Outcome::Mismatch(score),
    }
}

/// Attempted / verified / failed counts of one phase, plus the SSIM sum
/// of the delivered frames.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Frames attempted.
    pub attempted: u64,
    /// Frames delivered and verified.
    pub verified: u64,
    /// Frames delivered at the right size (verified or not).
    pub delivered: u64,
    /// Sum of the delivered frames' SSIM scores.
    pub ssim_sum: f64,
}

impl Tally {
    /// Counts one outcome; returns whether it verified.
    pub fn record(&mut self, outcome: Outcome) -> bool {
        self.attempted += 1;
        match outcome {
            Outcome::Verified(s) => {
                self.verified += 1;
                self.delivered += 1;
                self.ssim_sum += s;
                true
            }
            Outcome::Mismatch(s) => {
                self.delivered += 1;
                self.ssim_sum += s;
                false
            }
            Outcome::WrongSize | Outcome::Rejected => false,
        }
    }

    /// Folds another client's tally in.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.verified += other.verified;
        self.delivered += other.delivered;
        self.ssim_sum += other.ssim_sum;
    }

    /// Frames that failed (not delivered, wrong size or mismatching).
    pub fn failed(&self) -> u64 {
        self.attempted - self.verified
    }

    /// Verified ÷ attempted (`0.0` before the first attempt).
    pub fn verified_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.verified as f64 / self.attempted as f64
        }
    }

    /// Mean SSIM of the delivered frames (`0.0` when none arrived).
    pub fn ssim_mean(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.ssim_sum / self.delivered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcc_math::Vec3;

    fn gradient(w: u32, h: u32) -> Image {
        let mut img = Image::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let v = (x + y * w) as f32 / (w * h) as f32;
                img.set(x, y, Vec3::new(v, 1.0 - v, 0.5));
            }
        }
        img
    }

    fn share_after(reference: &RefFrame, rule: Rule, bad: Result<&Image, &str>) -> f64 {
        let good = reference.exact.clone().expect("kept");
        let mut tally = Tally::default();
        assert!(tally.record(judge::<&str>(reference, rule, Ok(&good))));
        assert_eq!(tally.verified_share(), 1.0);
        tally.record(judge(reference, rule, bad));
        tally.verified_share()
    }

    #[test]
    fn one_flipped_pixel_lowers_verified_share() {
        let reference = RefFrame::of(gradient(16, 16), true);
        let mut flipped = gradient(16, 16);
        let p = flipped.get(3, 4);
        flipped.set(3, 4, Vec3::new(f32::from_bits(p.x.to_bits() ^ 1), p.y, p.z));
        assert_eq!(share_after(&reference, Rule::Exact, Ok(&flipped)), 0.5);
    }

    #[test]
    fn wrong_size_frame_lowers_verified_share() {
        let reference = RefFrame::of(gradient(16, 16), true);
        let small = gradient(8, 8);
        assert_eq!(share_after(&reference, Rule::Exact, Ok(&small)), 0.5);
        // Size is checked before quality: no SSIM floor rescues it.
        assert_eq!(share_after(&reference, Rule::MinSsim(0.0), Ok(&small)), 0.5);
    }

    #[test]
    fn typed_rejection_lowers_verified_share() {
        let reference = RefFrame::of(gradient(16, 16), true);
        let rejected = Err("service is overloaded; request shed");
        assert_eq!(share_after(&reference, Rule::Exact, rejected), 0.5);
    }

    #[test]
    fn quality_rule_accepts_close_frames_and_scores_them() {
        let reference = RefFrame::of(gradient(32, 32), true);
        let mut near = gradient(32, 32);
        let p = near.get(0, 0);
        near.set(0, 0, Vec3::new(p.x + 0.01, p.y, p.z));
        match judge::<&str>(&reference, Rule::MinSsim(0.5), Ok(&near)) {
            Outcome::Verified(s) => assert!(s > 0.5 && s < 1.0, "ssim {s}"),
            other => panic!("expected a verified frame, got {other:?}"),
        }
        let flat = Image::filled(32, 32, Vec3::ZERO);
        assert!(matches!(
            judge::<&str>(&reference, Rule::MinSsim(0.99), Ok(&flat)),
            Outcome::Mismatch(_)
        ));
    }
}
