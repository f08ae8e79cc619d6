// Package cubic implements TCP CUBIC (RFC 8312): cubic window growth
// around the last congestion point, fast convergence, the TCP-friendly
// region, and a β=0.7 multiplicative decrease. CUBIC is the paper's
// canonical loss-based primary protocol (and the protocol LEDBAT was
// designed to scavenge against).
package cubic

import (
	"math"

	"pccproteus/internal/netem"
	"pccproteus/internal/transport"
)

const (
	mss = float64(netem.MTU)

	beta         = 0.7 // multiplicative decrease factor
	cubicC       = 0.4 // cubic scaling constant (packets/sec³)
	minCwnd      = 2 * mss
	fastConverge = true
)

// Controller is one CUBIC connection's congestion state.
type Controller struct {
	cwnd       float64 // bytes
	ssthresh   float64
	wMax       float64 // window at last loss, bytes
	k          float64 // time to regain wMax, seconds
	epochStart float64 // -1 = no epoch
	lastLoss   float64 // time of last window reduction
	srtt       float64
}

// New returns a CUBIC controller with the modern 10-segment initial
// window.
func New() *Controller {
	return NewWithIW(10)
}

// NewWithIW returns a CUBIC controller with an explicit initial window
// in segments (older stacks shipped IW=3; useful for modeling short
// cross-traffic flows of that era).
func NewWithIW(segments int) *Controller {
	return &Controller{
		cwnd:       float64(segments) * mss,
		ssthresh:   math.Inf(1),
		epochStart: -1,
		lastLoss:   -1,
	}
}

// Name implements transport.Controller.
func (c *Controller) Name() string { return "cubic" }

// OnSend implements transport.Controller.
func (c *Controller) OnSend(float64, *transport.SentPacket) {}

// CWnd implements transport.Controller.
func (c *Controller) CWnd() float64 { return c.cwnd }

// PacingRate implements transport.Controller: 0 selects the sender's
// default cwnd/srtt pacing, as Linux does for TCP.
func (c *Controller) PacingRate() float64 { return 0 }

// OnAck implements transport.Controller.
func (c *Controller) OnAck(ack transport.Ack) {
	if c.srtt == 0 {
		c.srtt = ack.RTT
	} else {
		c.srtt = 0.875*c.srtt + 0.125*ack.RTT
	}
	if c.cwnd < c.ssthresh {
		// Slow start.
		c.cwnd += float64(ack.Bytes)
		return
	}
	// Congestion avoidance: steer toward the cubic curve.
	if c.epochStart < 0 {
		c.epochStart = ack.Now
		if c.wMax < c.cwnd {
			c.wMax = c.cwnd
			c.k = 0
		} else {
			c.k = math.Cbrt(c.wMax / mss * (1 - beta) / cubicC)
		}
	}
	t := ack.Now - c.epochStart + c.srtt // target one RTT ahead
	wCubic := (cubicC*math.Pow(t-c.k, 3) + c.wMax/mss) * mss
	// TCP-friendly region (RFC 8312 §4.2).
	wEst := (c.wMax/mss*beta + 3*(1-beta)/(1+beta)*(t/c.srtt)) * mss
	target := wCubic
	if wEst > target {
		target = wEst
	}
	if target > c.cwnd {
		c.cwnd += (target - c.cwnd) / (c.cwnd / mss) * (float64(ack.Bytes) / mss)
	} else {
		// Very slow growth when at/above target.
		c.cwnd += mss * (float64(ack.Bytes) / mss) / (100 * c.cwnd / mss)
	}
}

// OnLoss implements transport.Controller: one multiplicative decrease
// per RTT-spaced loss episode.
func (c *Controller) OnLoss(loss transport.Loss) {
	rtt := c.srtt
	if rtt == 0 {
		rtt = 0.1
	}
	if c.lastLoss >= 0 && loss.Now-c.lastLoss < rtt {
		return // same loss episode
	}
	c.lastLoss = loss.Now
	if fastConverge && c.cwnd < c.wMax {
		c.wMax = c.cwnd * (1 + beta) / 2
	} else {
		c.wMax = c.cwnd
	}
	c.cwnd *= beta
	if c.cwnd < minCwnd {
		c.cwnd = minCwnd
	}
	c.ssthresh = c.cwnd
	c.epochStart = -1
	c.k = math.Cbrt(c.wMax / mss * (1 - beta) / cubicC)
}
