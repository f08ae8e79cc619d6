// Package fixedrate provides a constant-rate, congestion-oblivious
// controller. The paper uses a 20 Mbps fixed-rate UDP flow as the
// measurement probe for the Figure 2 RTT-deviation vs RTT-gradient
// analysis; it is also handy as a traffic generator and in tests.
package fixedrate

import (
	"math"

	"pccproteus/internal/transport"
)

// Controller sends at a fixed rate. Win, when set, bounds the bytes in
// flight, so an over-offered flow stays ack-clocked instead of piling up
// unacked packets.
type Controller struct {
	Rate float64 // bytes per second
	Win  float64 // bytes in flight; 0 = unbounded
}

// New returns a fixed-rate controller with the rate given in Mbps and no
// window limit.
func New(rateMbps float64) *Controller {
	return &Controller{Rate: rateMbps * 1e6 / 8}
}

// Name implements transport.Controller.
func (c *Controller) Name() string { return "fixedrate" }

// OnSend implements transport.Controller.
func (c *Controller) OnSend(float64, *transport.SentPacket) {}

// OnAck implements transport.Controller.
func (c *Controller) OnAck(transport.Ack) {}

// OnLoss implements transport.Controller.
func (c *Controller) OnLoss(transport.Loss) {}

// PacingRate implements transport.Controller.
func (c *Controller) PacingRate() float64 { return c.Rate }

// CWnd implements transport.Controller.
func (c *Controller) CWnd() float64 {
	if c.Win > 0 {
		return c.Win
	}
	return math.Inf(1)
}
