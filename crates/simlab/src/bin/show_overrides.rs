//! Renders the synthesized overrides (the recovered "omitted
//! behaviors") as ASCII views, for inspection and for DESIGN.md.
//!
//! ```text
//! cargo run --release -p simlab --bin show_overrides [-- --markdown]
//! ```
//!
//! It writes through [`simlab::write_stdout`], so a closed reader
//! (`show_overrides | head -1`) ends the run quietly with exit 0.

use gathering::base::{determine, BaseDecision};
use gathering::overrides::OVERRIDES;
use gathering::rules;
use robots::View;
use std::io::{self, Write};
use trigrid::{Coord, ORIGIN};

/// Renders the 18-node view with the observer at `*`, robots `●`,
/// empties `·`, and the move target marked `→` (or `↗` etc. by
/// direction name printed separately).
fn render_view(v: &View, target: Coord) -> String {
    let mut out = String::new();
    for y in (-2..=2i32).rev() {
        let mut line = String::new();
        for x in -4..=4i32 {
            if (x + y) % 2 != 0 {
                line.push(' ');
                continue;
            }
            let c = Coord::new(x, y);
            let ch = if c == ORIGIN {
                '*'
            } else if c == target {
                '◎'
            } else if c.distance(ORIGIN) > 2 {
                ' '
            } else if v.is_robot(c) {
                '●'
            } else {
                '·'
            };
            line.push(ch);
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Prints every override with its base decision and rendered view.
fn print_overrides(markdown: bool, out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "{} synthesized overrides (view → move); observer '*', robots '●', target '◎':\n",
        OVERRIDES.len()
    )?;
    for &(bits, code) in OVERRIDES {
        let v = View::from_bits(2, bits as u64);
        let d = rules::decode_decision(code).expect("overrides always move");
        let base = match determine(&v) {
            BaseDecision::Base(c) => format!("base {c}"),
            BaseDecision::VirtualEast => "virtual base (4,0)".into(),
            BaseDecision::SelfPromotion => "self-promotion".into(),
            BaseDecision::Tie => "tie".into(),
        };
        if markdown {
            writeln!(out, "### view `{bits:#07x}` → **{d:?}** ({base})\n\n```text")?;
            write!(out, "{}", render_view(&v, d.delta()))?;
            writeln!(out, "```\n")?;
        } else {
            writeln!(out, "view {bits:#07x} -> {d:?}  ({base})")?;
            write!(out, "{}", render_view(&v, d.delta()))?;
            writeln!(out)?;
        }
    }
    Ok(())
}

fn main() {
    let markdown = std::env::args().any(|a| a == "--markdown");
    simlab::write_stdout("show_overrides", |out| print_overrides(markdown, out));
}
